//! # nimble-obs
//!
//! End-to-end request observability for the Nimble serving stack: a
//! per-thread span recorder with request-scoped trace propagation, plus
//! unified exporters ([`export::chrome_trace`] for `about:tracing` /
//! Perfetto, [`export::prometheus`] for scrape-able metrics).
//!
//! ## Design
//!
//! * **Spans** are `(trace, id, parent, name, category, start, duration)`
//!   records. A [`span`] guard measures the region between its creation
//!   and drop and parents itself under the thread's current span; closed
//!   spans are pushed into a **per-thread bounded buffer** whose writer
//!   path is lock-free (the owning thread appends with plain atomic word
//!   stores and publishes with one release store; exporters read
//!   concurrently with acquire loads and a generation re-check). When a
//!   buffer fills, further spans are *dropped and counted* — memory stays
//!   bounded, and [`dropped_spans`] reports the loss instead of hiding it.
//! * **Traces** are started at an admission point ([`start_trace`]);
//!   everything downstream inherits the trace through the thread-local
//!   [`SpanContext`] (explicitly carried across queues/threads with
//!   [`current`] + [`enter`]).
//! * **Mode switch**: `NIMBLE_TRACE=off|tail[:mult]|all` (also settable
//!   programmatically with [`set_mode`]). The disabled fast path of every
//!   instrumentation site is a single relaxed atomic load — no clock
//!   read, no TLS access, no allocation.
//! * **Tail mode** ([`TraceMode::Tail`]) is the production mode: every
//!   request records into a bounded per-request buffer (module
//!   [`flight`]) and the keep/drop verdict is rendered at request
//!   *completion* — retain p99 outliers, sheds, requeues, chaos-episode
//!   and specialize-triggering requests; drop the steady state. See the
//!   [`flight`] module docs for the verdict table. `all` keeps every span
//!   in the per-thread rings, for export and debugging.
//! * **Metrics** share one histogram type ([`hist::Histogram`]) and one
//!   Prometheus text builder ([`export::PromBuf`]).
//!
//! Span names must be `&'static str` so records stay plain words; dynamic
//! names (kernel names, model names) are interned once with [`intern`].

pub mod events;
pub mod export;
pub mod flight;
pub mod hist;
pub mod json;

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans retained per thread buffer; one record is eight `u64` words, so
/// this bounds each thread's trace memory at 512 KiB.
pub const THREAD_BUFFER_SPANS: usize = 8192;

const WORDS: usize = 8;

/// Process-wide tracing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; every instrumentation site reduces to one relaxed
    /// atomic load.
    Off,
    /// Record every trace into the per-thread rings (export/debug mode).
    All,
    /// Flight-recorder mode: capture every trace into a per-request
    /// buffer and decide keep/drop at completion (see [`flight`]). The
    /// rolling-quantile multiplier is set separately with
    /// [`flight::set_tail_multiplier`].
    Tail,
}

/// Coarse span categories, mirrored into the Chrome export's `cat` field
/// and aligned with the VM profiler's kernel/shape-func/other buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Category {
    /// Anything without a more specific bucket.
    Other = 0,
    /// Compute-kernel execution (`InvokePacked` on a compute kernel).
    Kernel = 1,
    /// Shape-function execution.
    ShapeFunc = 2,
    /// VM interpretation (dispatch loop, instruction spans).
    Vm = 3,
    /// Engine queueing and per-request execution.
    Engine = 4,
    /// Serving front door (router admission to reply).
    Serve = 5,
    /// Data-parallel worker-pool chunks (GEMM microkernels, packing).
    Pool = 6,
    /// Device-side work (simulated GPU stream, lane synchronization).
    Device = 7,
    /// Chaos-harness episodes (fault injection and quiesce checks).
    Chaos = 8,
    /// Shape-specialization subsystem (observe/tune/install lifecycle).
    Specialize = 9,
}

impl Category {
    fn from_u8(v: u8) -> Category {
        match v {
            1 => Category::Kernel,
            2 => Category::ShapeFunc,
            3 => Category::Vm,
            4 => Category::Engine,
            5 => Category::Serve,
            6 => Category::Pool,
            7 => Category::Device,
            8 => Category::Chaos,
            9 => Category::Specialize,
            _ => Category::Other,
        }
    }

    /// The Chrome trace-event `cat` string.
    pub fn label(self) -> &'static str {
        match self {
            Category::Other => "other",
            Category::Kernel => "kernel",
            Category::ShapeFunc => "shape_func",
            Category::Vm => "vm",
            Category::Engine => "engine",
            Category::Serve => "serve",
            Category::Pool => "pool",
            Category::Device => "device",
            Category::Chaos => "chaos",
            Category::Specialize => "specialize",
        }
    }
}

/// The propagation handle: which trace (if any) the current work belongs
/// to and which span is its parent. `Copy` so it can ride through request
/// queues and closures for free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace id; 0 = no context.
    pub trace: u64,
    /// Parent span id within the trace (the trace root's own id for a
    /// freshly started trace).
    pub span: u64,
}

impl SpanContext {
    /// No context at all (downstream layers may start their own trace).
    pub const NONE: SpanContext = SpanContext { trace: 0, span: 0 };

    /// Whether spans under this context are recorded (it belongs to a
    /// trace; the alternative is [`SpanContext::NONE`]).
    pub fn is_sampled(self) -> bool {
        self.trace != 0
    }
}

// ---------------------------------------------------------------------------
// Mode + ids + clock

const MODE_UNINIT: u64 = u64::MAX;
const MODE_OFF: u64 = 0;
const MODE_ALL: u64 = 1;
const MODE_TAIL: u64 = 2;

static MODE: AtomicU64 = AtomicU64::new(MODE_UNINIT);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
/// Bumped by [`reset`]; buffers lazily self-clear when they notice.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Parse a `NIMBLE_TRACE` value into a mode and an optional tail
/// multiplier. `None` is "not a mode": the caller warns and stays off, the
/// way a bad `NIMBLE_SIMD` value falls back to the detected ISA.
fn parse_mode(v: &str) -> Option<(TraceMode, Option<f64>)> {
    let v = v.to_ascii_lowercase();
    match v.as_str() {
        "" | "off" | "0" | "false" | "none" => Some((TraceMode::Off, None)),
        "all" | "on" | "1" | "true" => Some((TraceMode::All, None)),
        "tail" => Some((TraceMode::Tail, None)),
        // A malformed multiplier keeps the default one.
        _ => v.strip_prefix("tail:").map(|mult| {
            let mult = mult.parse().ok();
            (
                TraceMode::Tail,
                mult.filter(|m: &f64| m.is_finite() && *m > 0.0),
            )
        }),
    }
}

fn mode_word(mode: TraceMode) -> u64 {
    match mode {
        TraceMode::Off => MODE_OFF,
        TraceMode::All => MODE_ALL,
        TraceMode::Tail => MODE_TAIL,
    }
}

fn parse_env_mode() -> u64 {
    let Ok(v) = std::env::var("NIMBLE_TRACE") else {
        return MODE_OFF;
    };
    match parse_mode(&v) {
        Some((mode, mult)) => {
            if let Some(m) = mult {
                flight::set_tail_multiplier(m);
            }
            mode_word(mode)
        }
        None => {
            // `mode_raw` may parse a few times under a startup race.
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "nimble-obs: unrecognized NIMBLE_TRACE={v:?} (expected \
                 off|tail[:mult]|all); tracing stays off"
                )
            });
            MODE_OFF
        }
    }
}

/// The raw mode word; initializes from `NIMBLE_TRACE` on first use. The
/// hot path is the single relaxed load (the env parse runs at most a
/// handful of times under a startup race, with an identical result).
#[inline]
fn mode_raw() -> u64 {
    let m = MODE.load(Ordering::Relaxed);
    if m != MODE_UNINIT {
        return m;
    }
    let parsed = parse_env_mode();
    MODE.store(parsed, Ordering::Relaxed);
    parsed
}

/// Whether tracing is on at all (the one-load fast path).
#[inline]
pub fn enabled() -> bool {
    mode_raw() != MODE_OFF
}

/// Override the process-wide trace mode (tests and benchmarks; production
/// uses the `NIMBLE_TRACE` environment variable).
pub fn set_mode(mode: TraceMode) {
    MODE.store(mode_word(mode), Ordering::Relaxed);
}

/// The current process-wide trace mode.
pub fn mode() -> TraceMode {
    match mode_raw() {
        MODE_ALL => TraceMode::All,
        MODE_TAIL => TraceMode::Tail,
        _ => TraceMode::Off,
    }
}

/// Span granularity. `Ops` (the default) records spans around units of
/// real work — kernels, shape functions, allocations, device copies —
/// while skipping register-bookkeeping VM instructions whose execution
/// time (~100-250ns) is comparable to the cost of the span itself.
/// `Instr` records every VM instruction; use it when stepping through a
/// single request, not in steady-state serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceDetail {
    Ops,
    Instr,
}

const DETAIL_UNINIT: u64 = 0;
const DETAIL_OPS: u64 = 1;
const DETAIL_INSTR: u64 = 2;

static DETAIL: AtomicU64 = AtomicU64::new(DETAIL_UNINIT);

fn detail_raw() -> u64 {
    let d = DETAIL.load(Ordering::Relaxed);
    if d != DETAIL_UNINIT {
        return d;
    }
    let parsed = match std::env::var("NIMBLE_TRACE_DETAIL") {
        Ok(v) => match v.to_ascii_lowercase().as_str() {
            "instr" | "instructions" | "full" => DETAIL_INSTR,
            _ => DETAIL_OPS,
        },
        Err(_) => DETAIL_OPS,
    };
    DETAIL.store(parsed, Ordering::Relaxed);
    parsed
}

/// Whether instruction-level spans are requested (see [`TraceDetail`]).
/// Instrumentation sites cache this per scope, not per span.
#[inline]
pub fn detail_instr() -> bool {
    detail_raw() == DETAIL_INSTR
}

/// Override the span granularity (tests and debugging; production uses
/// the `NIMBLE_TRACE_DETAIL` environment variable).
pub fn set_detail(detail: TraceDetail) {
    let v = match detail {
        TraceDetail::Ops => DETAIL_OPS,
        TraceDetail::Instr => DETAIL_INSTR,
    };
    DETAIL.store(v, Ordering::Relaxed);
}

/// The current span granularity.
pub fn detail() -> TraceDetail {
    match detail_raw() {
        DETAIL_INSTR => TraceDetail::Instr,
        _ => TraceDetail::Ops,
    }
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// Calibrated raw-TSC clock. `clock_gettime` through the vDSO costs
/// ~30ns; two calls per span across hundreds of spans per request is the
/// single largest term in the tracing overhead budget, so span timestamps
/// read the TSC directly (~7ns) and convert with a fixed-point
/// nanoseconds-per-tick factor measured once against `Instant` at first
/// use. Falls back to `Instant` off x86_64 or when calibration fails.
#[cfg(target_arch = "x86_64")]
#[inline]
fn rdtsc() -> u64 {
    // SAFETY: RDTSC is unprivileged baseline x86_64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// TSC calibration: ns-per-tick in 2^24 fixed point, and the tick base of
/// the trace epoch. `TSC_MULT == 0` means uncalibrated (first call does a
/// one-time spin) and `u64::MAX` means the TSC is unusable (fall back to
/// `Instant`). Plain atomics rather than a `OnceLock`: `now_ns` runs
/// twice per span, and the fast path must be two relaxed loads plus the
/// multiply.
#[cfg(target_arch = "x86_64")]
static TSC_MULT: AtomicU64 = AtomicU64::new(0);
#[cfg(target_arch = "x86_64")]
static TSC_BASE: AtomicU64 = AtomicU64::new(0);

#[cfg(target_arch = "x86_64")]
#[cold]
fn tsc_calibrate() -> u64 {
    // One-time ~2ms spin against the OS clock; 2ms bounds the frequency
    // error near the vDSO clock resolution (~10ppm), far below what span
    // durations can resolve.
    let t0 = Instant::now();
    let c0 = rdtsc();
    while t0.elapsed() < std::time::Duration::from_millis(2) {
        std::hint::spin_loop();
    }
    let dt = t0.elapsed().as_nanos();
    let dc = rdtsc().wrapping_sub(c0) as u128;
    let mult = (dt << 24).checked_div(dc).unwrap_or(0);
    let mult = if mult == 0 || mult >= u64::MAX as u128 {
        u64::MAX
    } else {
        mult as u64
    };
    TSC_BASE.store(c0, Ordering::Relaxed);
    // Publish the multiplier last; racing threads may calibrate twice,
    // converging on one base/mult pair (store order is base-then-mult and
    // readers tolerate a torn pair only as a transiently skewed epoch).
    TSC_MULT.store(mult, Ordering::Release);
    mult
}

/// Nanoseconds since the process trace epoch (first obs use). All span
/// timestamps share this clock.
#[inline]
pub fn now_ns() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let mut mult = TSC_MULT.load(Ordering::Relaxed);
        if mult == 0 {
            mult = tsc_calibrate();
        }
        if mult != u64::MAX {
            let d = rdtsc().wrapping_sub(TSC_BASE.load(Ordering::Relaxed));
            return ((d as u128 * mult as u128) >> 24) as u64;
        }
    }
    epoch().elapsed().as_nanos() as u64
}

/// Span ids per block a thread claims from the global counter at a time.
/// Ids stay process-unique (the counter is monotone, never reset); the
/// hot path is a thread-local increment instead of a shared `fetch_add`
/// per span.
const SPAN_ID_BLOCK: u64 = 256;

fn next_span_id() -> u64 {
    thread_local! {
        static BLOCK: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }
    BLOCK.with(|b| {
        let (next, end) = b.get();
        if next < end {
            b.set((next + 1, end));
            return next;
        }
        let start = NEXT_SPAN_ID.fetch_add(SPAN_ID_BLOCK, Ordering::Relaxed);
        b.set((start + 1, start + SPAN_ID_BLOCK));
        start
    })
}

// ---------------------------------------------------------------------------
// Per-thread recorder

/// One recorded span, decoded from the thread buffers by [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id (unique per process run).
    pub id: u64,
    /// Parent span id; 0 for trace roots.
    pub parent: u64,
    /// Trace this span belongs to.
    pub trace: u64,
    /// Start, nanoseconds on the [`now_ns`] clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Static (or interned) span name.
    pub name: &'static str,
    /// Coarse bucket.
    pub cat: Category,
    /// Free-form argument (bytes, chunk index, outcome code...).
    pub arg: u64,
    /// Recorder-thread id (buffer registration order, not OS tid).
    pub tid: u64,
}

struct ThreadBuf {
    tid: u64,
    gen: AtomicU64,
    len: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[AtomicU64]>,
}

impl ThreadBuf {
    fn new(tid: u64) -> ThreadBuf {
        ThreadBuf {
            tid,
            gen: AtomicU64::new(GENERATION.load(Ordering::Relaxed)),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..THREAD_BUFFER_SPANS * WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Owner-thread append. Slots below the published `len` are never
    /// rewritten within a generation, so readers need no lock.
    fn push(&self, rec: [u64; WORDS]) {
        let g = GENERATION.load(Ordering::Relaxed);
        if self.gen.load(Ordering::Relaxed) != g {
            self.len.store(0, Ordering::Release);
            self.dropped.store(0, Ordering::Relaxed);
            self.gen.store(g, Ordering::Release);
        }
        let n = self.len.load(Ordering::Relaxed);
        if n >= THREAD_BUFFER_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let base = n * WORDS;
        for (i, w) in rec.iter().enumerate() {
            self.slots[base + i].store(*w, Ordering::Relaxed);
        }
        self.len.store(n + 1, Ordering::Release);
    }

    /// Concurrent read of every record published under generation `g`.
    /// A generation change mid-read (a concurrent [`reset`] plus reuse)
    /// is detected and the buffer discarded; torn word reads before the
    /// re-check are plain atomic loads, never dereferenced.
    fn read_into(&self, g: u64, out: &mut Vec<SpanRecord>) {
        if self.gen.load(Ordering::Acquire) != g {
            return;
        }
        let n = self.len.load(Ordering::Acquire).min(THREAD_BUFFER_SPANS);
        let mut raw = Vec::with_capacity(n);
        for i in 0..n {
            let base = i * WORDS;
            let mut rec = [0u64; WORDS];
            for (j, w) in rec.iter_mut().enumerate() {
                *w = self.slots[base + j].load(Ordering::Relaxed);
            }
            raw.push(rec);
        }
        if self.gen.load(Ordering::Acquire) != g {
            return;
        }
        // SAFETY of the decode: generation unchanged across the read, so
        // every slot below `n` holds a fully published record whose name
        // words came from a `&'static str` (literal or interned leak).
        for rec in raw {
            out.push(decode_record(rec, self.tid));
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
    static LOCAL_BUF: std::cell::OnceCell<Arc<ThreadBuf>> = const { std::cell::OnceCell::new() };
}

fn with_local_buf(f: impl FnOnce(&ThreadBuf)) {
    LOCAL_BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let mut reg = registry().lock().unwrap();
            let buf = Arc::new(ThreadBuf::new(reg.len() as u64 + 1));
            reg.push(Arc::clone(&buf));
            buf
        });
        f(buf);
    });
}

#[allow(clippy::too_many_arguments)]
fn push_record(
    trace: u64,
    id: u64,
    parent: u64,
    name: &'static str,
    cat: Category,
    start_ns: u64,
    end_ns: u64,
    arg: u64,
    staged: bool,
) {
    let meta = ((cat as u64) << 56) | (arg & ((1u64 << 56) - 1));
    let rec = [
        id,
        parent,
        trace,
        start_ns,
        end_ns.saturating_sub(start_ns),
        name.as_ptr() as u64,
        name.len() as u64,
        meta,
    ];
    // Tail mode routes spans to their request's flight buffer; traces
    // without one (bare roots, already-finished requests) fall through to
    // the thread rings so they still record somewhere. A record pushed
    // while the thread is *inside* the trace's span stack may be staged
    // thread-locally (the stack-unwind hooks flush it); anything else —
    // bare roots, cross-thread `record_under`/`record_root` intervals —
    // publishes immediately, because no unwind on this thread follows.
    if mode_raw() == MODE_TAIL && flight::try_push(trace, rec, staged) {
        return;
    }
    with_local_buf(|buf| buf.push(rec));
}

/// Decode one raw record into a [`SpanRecord`].
///
/// # Safety contract (internal)
/// The name words must have been produced by [`push_record`] from a
/// `&'static str` (literal or [`intern`] leak) — callers only hand this
/// fully published records.
pub(crate) fn decode_record(rec: [u64; WORDS], tid: u64) -> SpanRecord {
    let name: &'static str = unsafe {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(
            rec[5] as *const u8,
            rec[6] as usize,
        ))
    };
    SpanRecord {
        id: rec[0],
        parent: rec[1],
        trace: rec[2],
        start_ns: rec[3],
        dur_ns: rec[4],
        name,
        cat: Category::from_u8((rec[7] >> 56) as u8),
        arg: rec[7] & ((1u64 << 56) - 1),
        tid,
    }
}

/// Decode every span recorded since the last [`reset`], across all
/// threads (including threads that have since exited). Order is
/// per-thread append order; sort by `start_ns` for a timeline.
pub fn snapshot() -> Vec<SpanRecord> {
    let g = GENERATION.load(Ordering::Acquire);
    let bufs: Vec<Arc<ThreadBuf>> = registry().lock().unwrap().clone();
    let mut out = Vec::new();
    for buf in bufs {
        buf.read_into(g, &mut out);
    }
    out
}

/// Spans dropped on buffer overflow since the last [`reset`].
pub fn dropped_spans() -> u64 {
    let g = GENERATION.load(Ordering::Acquire);
    registry()
        .lock()
        .unwrap()
        .iter()
        .filter(|b| b.gen.load(Ordering::Acquire) == g)
        .map(|b| b.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Spans currently retained (readable by [`snapshot`]).
pub fn recorded_spans() -> u64 {
    let g = GENERATION.load(Ordering::Acquire);
    registry()
        .lock()
        .unwrap()
        .iter()
        .filter(|b| b.gen.load(Ordering::Acquire) == g)
        .map(|b| b.len.load(Ordering::Acquire) as u64)
        .sum()
}

/// Spans dropped anywhere since the last [`reset`]: thread-ring overflow
/// plus flight-recorder request-buffer overflow. This is the
/// `nimble_obs_dropped_spans_total` exposition value.
pub fn dropped_spans_total() -> u64 {
    dropped_spans() + flight::flight_dropped()
}

/// Discard all recorded spans (bumps the generation; thread buffers clear
/// lazily on their next record) and clear all flight-recorder state.
pub fn reset() {
    GENERATION.fetch_add(1, Ordering::AcqRel);
    flight::reset();
}

// ---------------------------------------------------------------------------
// Context + guards

/// The calling thread's current span context ([`SpanContext::NONE`] when
/// tracing is off or nothing is active).
#[inline]
pub fn current() -> SpanContext {
    if !enabled() {
        return SpanContext::NONE;
    }
    CURRENT.with(|c| c.get())
}

/// Open a new trace at an admission point. Returns a recording context
/// (whose `span` is the pre-allocated root span id — record it later with
/// [`record_root`]), or [`SpanContext::NONE`] when tracing is off.
pub fn start_trace() -> SpanContext {
    let mode = mode_raw();
    if mode == MODE_OFF {
        return SpanContext::NONE;
    }
    let trace = NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed);
    if mode == MODE_TAIL {
        // Flight-recorder mode: every request records; the keep/drop
        // decision waits for the terminal verdict (`flight::finish`).
        flight::begin(trace);
    }
    SpanContext {
        trace,
        span: next_span_id(),
    }
}

/// Restores the previous thread context on drop (see [`enter`]).
#[must_use]
pub struct ContextGuard {
    prev: SpanContext,
    active: bool,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        if self.active {
            let cur = CURRENT.with(|c| c.replace(self.prev));
            // Leaving an adopted trace (a worker finishing a request):
            // publish any staged flight-recorder spans before the request
            // can reach its terminal verdict on another thread.
            if mode_raw() == MODE_TAIL && cur.is_sampled() && cur.trace != self.prev.trace {
                flight::flush_thread(cur.trace);
            }
        }
    }
}

/// Adopt `ctx` as the calling thread's current context (cross-thread
/// propagation: workers enter the context a request carried through a
/// queue). A no-op guard when tracing is off.
pub fn enter(ctx: SpanContext) -> ContextGuard {
    if !enabled() {
        return ContextGuard {
            prev: SpanContext::NONE,
            active: false,
        };
    }
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { prev, active: true }
}

/// Overwrite the calling thread's context with no restore guard — for
/// executor threads (device-lane workers) that process a FIFO of jobs,
/// each carrying its own context, and have no frame to unwind to. Sticky
/// contexts let consecutive same-trace jobs skip the per-job
/// flush-and-restore an [`enter`] guard would pay; the executor must pair
/// this with a [`flush_staged`] barrier its completion-waiters run behind
/// (see `GpuStream::synchronize`), since no guard drop will publish the
/// thread's staged spans.
pub fn set_current(ctx: SpanContext) {
    CURRENT.with(|c| c.set(ctx));
}

/// Publish the calling thread's staged flight-recorder spans, whatever
/// trace they belong to. The completion-barrier half of the sticky-
/// context protocol (see [`set_current`]): run this on the executor
/// thread after the jobs whose spans must be visible, before their
/// completion is signalled.
pub fn flush_staged() {
    if mode_raw() == MODE_TAIL {
        flight::flush_thread_any();
    }
}

/// A live span: measures creation-to-drop and records itself into the
/// thread buffer on drop. Inert (a boolean check) when tracing is off or
/// the current trace is not sampled.
#[must_use]
pub struct Span {
    active: bool,
    trace: u64,
    id: u64,
    parent: u64,
    start_ns: u64,
    name: &'static str,
    cat: Category,
    arg: u64,
    prev: SpanContext,
}

impl Span {
    const INERT: Span = Span {
        active: false,
        trace: 0,
        id: 0,
        parent: 0,
        start_ns: 0,
        name: "",
        cat: Category::Other,
        arg: 0,
        prev: SpanContext::NONE,
    };

    /// Whether this span will produce a record (the enclosing trace is
    /// sampled).
    pub fn is_recording(&self) -> bool {
        self.active
    }

    /// This span's context (children recorded under it); NONE when inert.
    pub fn context(&self) -> SpanContext {
        if self.active {
            SpanContext {
                trace: self.trace,
                span: self.id,
            }
        } else {
            SpanContext::NONE
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            let end = now_ns();
            // Staged iff the restored context still belongs to this trace
            // (a parent span or entered guard remains on this thread, and
            // its own unwind will flush); a bare root restoring to no
            // context publishes immediately instead.
            push_record(
                self.trace,
                self.id,
                self.parent,
                self.name,
                self.cat,
                self.start_ns,
                end,
                self.arg,
                self.prev.trace == self.trace,
            );
            CURRENT.with(|c| c.set(self.prev));
        }
    }
}

/// Open a child span of the thread's current context.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_full(name, Category::Other, 0)
}

/// [`span`] with an explicit category.
#[inline]
pub fn span_cat(name: &'static str, cat: Category) -> Span {
    span_full(name, cat, 0)
}

/// [`span`] with an explicit category and argument word (56 bits kept).
#[inline]
pub fn span_full(name: &'static str, cat: Category, arg: u64) -> Span {
    if !enabled() {
        return Span::INERT;
    }
    // One TLS access for the read-check-update: this path runs for every
    // span of every request in tail/all mode.
    let (parent, id) = CURRENT.with(|c| {
        let parent = c.get();
        if !parent.is_sampled() {
            return (parent, 0);
        }
        let id = next_span_id();
        c.set(SpanContext {
            trace: parent.trace,
            span: id,
        });
        (parent, id)
    });
    if id == 0 {
        return Span::INERT;
    }
    Span {
        active: true,
        trace: parent.trace,
        id,
        parent: parent.span,
        start_ns: now_ns(),
        name,
        cat,
        arg,
        prev: parent,
    }
}

/// [`span_full`] gated on [`TraceDetail::Instr`]: inert at the default
/// `Ops` granularity. For fine-grained sub-phase spans (kernel packing
/// loops, per-instruction VM steps) whose individual durations sit near
/// the cost of the span itself — recorded only when someone is actively
/// stepping through a request with `NIMBLE_TRACE_DETAIL=instr`.
#[inline]
pub fn span_detail(name: &'static str, cat: Category, arg: u64) -> Span {
    if !detail_instr() {
        return Span::INERT;
    }
    span_full(name, cat, arg)
}

/// Like [`span_full`], but when the thread has *no* context at all, open
/// a fresh trace and become its root. Lets a bare
/// `VirtualMachine::run` produce a trace without a serving stack above
/// it, while nesting normally when one exists.
pub fn root_span_full(name: &'static str, cat: Category, arg: u64) -> Span {
    if !enabled() {
        return Span::INERT;
    }
    let cur = CURRENT.with(|c| c.get());
    if cur.is_sampled() {
        return span_full(name, cat, arg);
    }
    let ctx = start_trace();
    if !ctx.is_sampled() {
        return Span::INERT;
    }
    CURRENT.with(|c| c.set(ctx));
    Span {
        active: true,
        trace: ctx.trace,
        id: ctx.span,
        parent: 0,
        start_ns: now_ns(),
        name,
        cat,
        arg,
        prev: cur,
    }
}

/// Record an already-measured interval as a child of `parent` (used for
/// cross-thread intervals like queue wait, where no guard can live).
/// Returns the new span's id, or 0 when not recorded.
pub fn record_under(
    parent: SpanContext,
    name: &'static str,
    cat: Category,
    start_ns: u64,
    end_ns: u64,
    arg: u64,
) -> u64 {
    if !enabled() || !parent.is_sampled() {
        return 0;
    }
    let id = next_span_id();
    let staged = CURRENT.with(|c| c.get()).trace == parent.trace;
    push_record(
        parent.trace,
        id,
        parent.span,
        name,
        cat,
        start_ns,
        end_ns,
        arg,
        staged,
    );
    id
}

/// Record an already-measured interval as a child of the thread's current
/// context.
pub fn record_current(name: &'static str, cat: Category, start_ns: u64, end_ns: u64, arg: u64) {
    record_under(current(), name, cat, start_ns, end_ns, arg);
}

/// Record the root span of a trace started with [`start_trace`] (its id
/// was pre-allocated as `ctx.span`); call once, when the request reaches
/// its terminal state.
pub fn record_root(
    ctx: SpanContext,
    name: &'static str,
    cat: Category,
    start_ns: u64,
    end_ns: u64,
    arg: u64,
) {
    if !enabled() || !ctx.is_sampled() {
        return;
    }
    let staged = CURRENT.with(|c| c.get()).trace == ctx.trace;
    push_record(
        ctx.trace, ctx.span, 0, name, cat, start_ns, end_ns, arg, staged,
    );
}

// ---------------------------------------------------------------------------
// Interning

/// Intern a dynamic name (kernel name, model name) into a `&'static str`
/// usable in span records. Leaks once per unique string — callers intern
/// at load/registration time, not per request.
pub fn intern(name: &str) -> &'static str {
    static INTERNED: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let map = INTERNED.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = map.lock().unwrap();
    if let Some(s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-mode tests share process state; serialize them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn off_mode_records_nothing() {
        let _l = lock();
        set_mode(TraceMode::Off);
        reset();
        let ctx = start_trace();
        assert_eq!(ctx, SpanContext::NONE);
        let s = span("noop");
        assert!(!s.is_recording());
        drop(s);
        assert_eq!(snapshot().len(), 0);
    }

    #[test]
    fn spans_nest_and_record() {
        let _l = lock();
        set_mode(TraceMode::All);
        reset();
        let ctx = start_trace();
        assert!(ctx.is_sampled());
        {
            let _g = enter(ctx);
            let outer = span_cat("outer", Category::Engine);
            let outer_id = outer.context().span;
            {
                let inner = span("inner");
                assert_eq!(inner.context().trace, ctx.trace);
                assert!(inner.is_recording());
            }
            drop(outer);
            record_root(ctx, "root", Category::Serve, 0, now_ns(), 7);
            let recs = snapshot();
            assert_eq!(recs.len(), 3);
            let inner = recs.iter().find(|r| r.name == "inner").unwrap();
            let outer = recs.iter().find(|r| r.name == "outer").unwrap();
            let root = recs.iter().find(|r| r.name == "root").unwrap();
            assert_eq!(inner.parent, outer_id);
            assert_eq!(outer.id, outer_id);
            assert_eq!(outer.parent, ctx.span);
            assert_eq!(root.id, ctx.span);
            assert_eq!(root.parent, 0);
            assert_eq!(root.arg, 7);
            assert_eq!(outer.cat, Category::Engine);
            assert!(recs.iter().all(|r| r.trace == ctx.trace));
        }
        set_mode(TraceMode::Off);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let _l = lock();
        set_mode(TraceMode::All);
        reset();
        let ctx = start_trace();
        let _g = enter(ctx);
        let extra = 100u64;
        for _ in 0..THREAD_BUFFER_SPANS as u64 + extra {
            drop(span("s"));
        }
        // This thread's buffer is full: every further span drops.
        assert!(dropped_spans() >= extra);
        assert!(recorded_spans() <= THREAD_BUFFER_SPANS as u64);
        reset();
        // After reset the buffer self-clears on next use.
        drop(span("fresh"));
        assert_eq!(dropped_spans(), 0);
        assert_eq!(snapshot().len(), 1);
        set_mode(TraceMode::Off);
    }

    #[test]
    fn cross_thread_propagation() {
        let _l = lock();
        set_mode(TraceMode::All);
        reset();
        let ctx = start_trace();
        let h = std::thread::spawn(move || {
            let _g = enter(ctx);
            drop(span_full("worker", Category::Pool, 3));
        });
        h.join().unwrap();
        let recs = snapshot();
        let w = recs.iter().find(|r| r.name == "worker").unwrap();
        assert_eq!(w.trace, ctx.trace);
        assert_eq!(w.parent, ctx.span);
        assert_eq!(w.arg, 3);
        set_mode(TraceMode::Off);
    }

    #[test]
    fn tail_mode_retains_by_verdict() {
        let _l = lock();
        set_mode(TraceMode::Tail);
        flight::set_tail_multiplier(4.0);
        reset();
        assert_eq!(mode(), TraceMode::Tail);

        // Non-Completed outcome retains regardless of latency or warmup.
        let ctx = start_trace();
        assert!(ctx.is_sampled());
        {
            let _g = enter(ctx);
            drop(span_cat("work", Category::Engine));
        }
        record_root(ctx, "req", Category::Serve, 0, 1000, 1);
        let v = flight::finish(ctx, "m", 1000, false).expect("failed request retained");
        assert!(v.reasons.contains("outcome"), "reasons: {}", v.reasons);
        assert_eq!(v.trace, ctx.trace);

        // Steady-state fast request: dropped, leaves no buffer behind.
        let ctx2 = start_trace();
        {
            let _g = enter(ctx2);
            drop(span("work"));
        }
        assert!(flight::finish(ctx2, "m", 1000, true).is_none());
        assert_eq!(flight::active_buffers(), 0);

        // The retained trace exports as valid Chrome JSON with both the
        // root and the child span.
        let json = flight::chrome_json(v.trace).expect("retained trace addressable");
        let parsed = json::parse(&json).expect("per-trace export is valid JSON");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        for name in ["req", "work"] {
            assert!(events
                .iter()
                .any(|e| e.get("name").unwrap().as_str() == Some(name)));
        }
        assert_eq!(flight::slowest_retained("m"), Some((v.trace, 1000)));
        assert!(flight::retained_traces().iter().any(|t| t.trace == v.trace));

        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn tail_mode_rolling_quantile_flags_slow_requests() {
        let _l = lock();
        set_mode(TraceMode::Tail);
        flight::set_tail_multiplier(4.0);
        reset();
        // Warm the window: steady ~1µs completions are never retained.
        for _ in 0..100 {
            let ctx = start_trace();
            assert!(
                flight::finish(ctx, "roll", 1_000, true).is_none(),
                "steady request retained during warmup"
            );
        }
        // p99 upper bound is 1024ns → threshold 4096ns; a 1ms outlier
        // crosses it.
        let ctx = start_trace();
        let v = flight::finish(ctx, "roll", 1_000_000, true).expect("outlier retained");
        assert_eq!(v.reasons, "slow");
        // ... and a fresh steady request after it is still dropped.
        let ctx = start_trace();
        assert!(flight::finish(ctx, "roll", 1_000, true).is_none());
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn tail_mode_pins_and_episodes_retain() {
        let _l = lock();
        set_mode(TraceMode::Tail);
        reset();
        let ctx = start_trace();
        flight::pin(ctx, flight::PIN_SPECIALIZE | flight::PIN_REQUEUED);
        let v = flight::finish(ctx, "p", 10, true).expect("pinned request retained");
        assert!(v.reasons.contains("specialize"));
        assert!(v.reasons.contains("requeued"));

        {
            let _ep = flight::episode_scope();
            let ctx = start_trace();
            let v = flight::finish(ctx, "p", 10, true).expect("chaos-episode request retained");
            assert_eq!(v.reasons, "chaos");
        }
        let ctx = start_trace();
        assert!(flight::finish(ctx, "p", 10, true).is_none());

        // Shed path: no latency sample, reason verbatim.
        let ctx = start_trace();
        let v = flight::finish_shed(ctx, "p", "shed_queue_full").expect("shed retained");
        assert_eq!(v.reasons, "shed_queue_full");
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn tail_multiplier_rejects_nonsense() {
        // The multiplier is process-global state; hold the mode lock.
        let _l = lock();
        flight::set_tail_multiplier(2.5);
        assert_eq!(flight::tail_multiplier(), 2.5);
        flight::set_tail_multiplier(f64::NAN);
        assert_eq!(flight::tail_multiplier(), flight::DEFAULT_TAIL_MULT);
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("kernel:dense_0");
        let b = intern("kernel:dense_0");
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, "kernel:dense_0");
    }

    #[test]
    fn env_mode_parsing() {
        // Parse logic only (the env var itself is read once, lazily).
        assert_eq!(parse_mode("off"), Some((TraceMode::Off, None)));
        assert_eq!(parse_mode(""), Some((TraceMode::Off, None)));
        assert_eq!(parse_mode("ALL"), Some((TraceMode::All, None)));
        assert_eq!(parse_mode("tail"), Some((TraceMode::Tail, None)));
        assert_eq!(parse_mode("tail:2.5"), Some((TraceMode::Tail, Some(2.5))));
        // Not a mode — including the head-sampling syntax of older
        // builds: rejected; the caller warns and stays off.
        assert_eq!(parse_mode("tail:x"), Some((TraceMode::Tail, None)));
        for bad in ["sampled:16", "tailx", "verbose"] {
            assert_eq!(parse_mode(bad), None, "{bad}");
        }
    }
}
