//! Exporters: Chrome trace-event JSON (for `about:tracing` / Perfetto)
//! and Prometheus text exposition.
//!
//! The Prometheus side uses a *collector registry*: higher layers (the
//! serve router, benchmarks) register closures that append their metric
//! families to the scrape output. Registration stores only a `Weak`
//! reference — dropping the returned [`CollectorHandle`] retires the
//! collector, so a shut-down router never contributes stale metrics.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::hist::HistogramSnapshot;
use crate::{
    dropped_spans, dropped_spans_total, flight, mode, recorded_spans, snapshot, SpanRecord,
    TraceMode,
};

// ---------------------------------------------------------------------------
// Chrome trace events

/// Append `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters). Every dynamic string the obs stack embeds in
/// JSON — interned span names, model names, event fields — goes through
/// here; interned names in particular carry kernel identifiers like
/// `main_b{bucket}` and arbitrary user strings.
pub(crate) fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render every recorded span as a Chrome trace-event JSON document
/// (`"X"` complete events, microsecond timestamps). Load the string
/// saved to a file in `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Spans are sorted by start time; ids, parents and trace ids ride in
/// each event's `args` so the request tree can be reconstructed.
pub fn chrome_trace() -> String {
    let mut spans = snapshot();
    spans.sort_by_key(|s| (s.start_ns, s.id));
    chrome_trace_for(&spans, dropped_spans())
}

/// Render an explicit span list as a Chrome trace-event JSON document —
/// the shared builder behind [`chrome_trace`] and the flight recorder's
/// per-retained-trace export. All names go through JSON escaping, so
/// interned dynamic names with quotes/backslashes/control characters
/// stay valid JSON.
pub fn chrome_trace_for(spans: &[SpanRecord], dropped: u64) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":\"");
        escape_json(s.name, &mut out);
        out.push_str("\",\"cat\":\"");
        out.push_str(s.cat.label());
        // Chrome expects microsecond floats; keep nanosecond precision
        // with three decimal places.
        let _ = write!(
            out,
            "\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":1,\"tid\":{},\
             \"args\":{{\"trace\":{},\"span\":{},\"parent\":{},\"arg\":{}}}}}",
            s.start_ns / 1_000,
            s.start_ns % 1_000,
            s.dur_ns / 1_000,
            s.dur_ns % 1_000,
            s.tid,
            s.trace,
            s.id,
            s.parent,
            s.arg
        );
    }
    let _ = write!(out, "],\"otherData\":{{\"droppedSpans\":{dropped}}}}}");
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition

/// Builder for Prometheus text-format output, handed to registered
/// collectors. Guarantees well-formed `# HELP`/`# TYPE` headers and
/// label escaping.
#[derive(Default)]
pub struct PromBuf {
    out: String,
}

impl PromBuf {
    /// Emit the `# HELP` / `# TYPE` header for a metric family.
    /// `kind` is `counter`, `gauge`, `summary`, `histogram`, or `untyped`.
    pub fn header(&mut self, name: &str, help: &str, kind: &str) {
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    fn write_labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.out.push_str(k);
            self.out.push_str("=\"");
            for c in v.chars() {
                match c {
                    '"' => self.out.push_str("\\\""),
                    '\\' => self.out.push_str("\\\\"),
                    '\n' => self.out.push_str("\\n"),
                    c => self.out.push(c),
                }
            }
            self.out.push('"');
        }
        self.out.push('}');
    }

    /// Emit one integer sample line.
    pub fn sample_u64(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.out.push_str(name);
        self.write_labels(labels);
        let _ = writeln!(self.out, " {value}");
    }

    /// Emit one floating-point sample line.
    pub fn sample_f64(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.write_labels(labels);
        if value.is_finite() {
            let _ = writeln!(self.out, " {value}");
        } else {
            let _ = writeln!(self.out, " NaN");
        }
    }

    /// Emit `name_sum` and `name_count` for `h`, the tail shared by the
    /// summary and histogram renderings.
    fn sum_count(&mut self, name: &str, labels: &[(&str, &str)], h: &HistogramSnapshot, unit: f64) {
        self.sample_f64(&format!("{name}_sum"), labels, h.sum() as f64 / unit);
        self.sample_u64(&format!("{name}_count"), labels, h.count());
    }

    /// Emit `h` as the sample lines of a `summary` family: the 0.5 / 0.9 /
    /// 0.99 quantiles, `_sum` and `_count`. Recorded values are divided by
    /// `unit` on the way out (`1e9` turns nanoseconds into seconds, `1.0`
    /// leaves plain counts alone).
    pub fn summary(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        h: &HistogramSnapshot,
        unit: f64,
    ) {
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            let labels = [labels, &[("quantile", label)]].concat();
            self.sample_f64(name, &labels, h.quantile(q) as f64 / unit);
        }
        self.sum_count(name, labels, h, unit);
    }

    /// Emit `h` as the sample lines of a `histogram` family: one
    /// cumulative `_bucket{le=...}` line per bound of its ladder (see
    /// [`HistogramSnapshot::ladder`]) ending in `+Inf`, each carrying its
    /// exemplar in OpenMetrics syntax (`... count # {trace_id="..."} value`)
    /// when one was stamped, then `_sum` and `_count`. `unit` scales as in [`PromBuf::summary`].
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        h: &HistogramSnapshot,
        unit: f64,
    ) {
        let bucket = format!("{name}_bucket");
        for b in h.ladder() {
            let le =
                b.le.map_or("+Inf".to_string(), |le| (le as f64 / unit).to_string());
            let labels = [labels, &[("le", le.as_str())]].concat();
            self.out.push_str(&bucket);
            self.write_labels(&labels);
            let _ = write!(self.out, " {}", b.count);
            if let Some((trace, value)) = b.exemplar {
                let _ = write!(
                    self.out,
                    " # {{trace_id=\"{trace}\"}} {}",
                    value as f64 / unit
                );
            }
            self.out.push('\n');
        }
        self.sum_count(name, labels, h, unit);
    }

    /// Finished exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

type Collector = dyn Fn(&mut PromBuf) + Send + Sync;

fn collectors() -> &'static Mutex<Vec<Weak<Collector>>> {
    static COLLECTORS: OnceLock<Mutex<Vec<Weak<Collector>>>> = OnceLock::new();
    COLLECTORS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Keeps a registered collector alive; dropping it retires the collector
/// from future [`prometheus`] scrapes.
pub struct CollectorHandle {
    _strong: Arc<Collector>,
}

/// Register a metrics collector invoked on every [`prometheus`] call.
/// The registry holds only a weak reference — the collector lives as
/// long as the returned handle.
pub fn register_collector(f: impl Fn(&mut PromBuf) + Send + Sync + 'static) -> CollectorHandle {
    let strong: Arc<Collector> = Arc::new(f);
    let mut reg = collectors().lock().unwrap();
    reg.retain(|w| w.strong_count() > 0);
    reg.push(Arc::downgrade(&strong));
    CollectorHandle { _strong: strong }
}

/// Render the unified Prometheus text exposition: obs self-metrics plus
/// every live registered collector (serve latency/queue summaries, arena
/// hit-rate, device-pool gauges, VM profile buckets...).
pub fn prometheus() -> String {
    let mut buf = PromBuf::default();
    let tail = mode() == TraceMode::Tail;
    let mode_val = match mode() {
        TraceMode::Off => 0.0,
        TraceMode::All => 1.0,
        TraceMode::Tail => 2.0,
    };
    // (name, help, kind, value, shown): the obs self-metrics, one row each.
    for (name, help, kind, value, shown) in [
        (
            "nimble_obs_spans_recorded",
            "Spans currently retained in thread buffers",
            "gauge",
            recorded_spans() as f64,
            true,
        ),
        (
            "nimble_obs_spans_dropped_total",
            "Spans dropped on thread-buffer overflow since last reset",
            "counter",
            dropped_spans() as f64,
            true,
        ),
        (
            "nimble_obs_dropped_spans_total",
            "Spans dropped anywhere (thread-ring overflow + flight request-buffer overflow) since last reset",
            "counter",
            dropped_spans_total() as f64,
            true,
        ),
        (
            "nimble_obs_trace_mode",
            "Tracing mode (0=off, 1=all, 2=tail; see nimble_obs_tail_multiplier)",
            "gauge",
            mode_val,
            true,
        ),
        (
            "nimble_obs_tail_multiplier",
            "Rolling-p99 multiplier of the tail retention threshold",
            "gauge",
            flight::tail_multiplier(),
            tail,
        ),
        (
            "nimble_obs_flight_retained_total",
            "Traces retained by the flight recorder since last reset",
            "counter",
            flight::retained_total() as f64,
            true,
        ),
        (
            "nimble_obs_flight_active_buffers",
            "In-flight per-request span buffers currently registered",
            "gauge",
            flight::active_buffers() as f64,
            true,
        ),
        (
            "nimble_obs_events_total",
            "Structured lifecycle events emitted since last reset",
            "counter",
            crate::events::events_total() as f64,
            true,
        ),
    ] {
        if shown {
            buf.header(name, help, kind);
            buf.sample_f64(name, &[], value);
        }
    }

    let live: Vec<Arc<Collector>> = {
        let mut reg = collectors().lock().unwrap();
        reg.retain(|w| w.strong_count() > 0);
        reg.iter().filter_map(|w| w.upgrade()).collect()
    };
    for c in live {
        c(&mut buf);
    }
    buf.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enter, reset, set_mode, span_full, start_trace, Category};
    use std::sync::Mutex as StdMutex;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: StdMutex<()> = StdMutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn chrome_trace_emits_events() {
        let _l = lock();
        set_mode(TraceMode::All);
        reset();
        let ctx = start_trace();
        {
            let _g = enter(ctx);
            drop(span_full("gemm \"quoted\"\n", Category::Kernel, 42));
        }
        let json = chrome_trace();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(json.contains("gemm \\\"quoted\\\"\\n"));
        assert!(json.contains("\"cat\":\"kernel\""));
        assert!(json.contains("\"arg\":42"));
        assert!(json.contains("droppedSpans"));
        set_mode(TraceMode::Off);
        reset();
    }

    #[test]
    fn chrome_trace_escapes_adversarial_interned_names() {
        let _l = lock();
        set_mode(TraceMode::All);
        crate::reset();
        // Kernel-style and hostile dynamic names: braces, quotes,
        // backslashes, raw control bytes, non-ASCII.
        let names = [
            "main_b{bucket}",
            "gemm \"8x8\" \\packed\\",
            "ctl\u{1}\u{1f} tab\t nl\n cr\r",
            "unicode é😀 end",
        ];
        let ctx = start_trace();
        {
            let _g = enter(ctx);
            for n in names {
                drop(span_full(crate::intern(n), Category::Kernel, 1));
            }
        }
        let json = chrome_trace();
        let v = crate::json::parse(&json).expect("chrome export must be valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        for n in names {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").unwrap().as_str() == Some(n)),
                "name {n:?} did not round-trip"
            );
        }
        set_mode(TraceMode::Off);
        crate::reset();
    }

    #[test]
    fn chrome_trace_empty_is_valid() {
        let _l = lock();
        set_mode(TraceMode::Off);
        reset();
        let json = chrome_trace();
        assert!(json.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn collectors_live_and_die_with_handle() {
        let _l = lock();
        let handle = register_collector(|buf| {
            buf.header("test_metric_xyz", "A test metric", "gauge");
            buf.sample_f64("test_metric_xyz", &[("model", "bert@\"1\"")], 0.5);
        });
        let text = prometheus();
        assert!(text.contains("# TYPE test_metric_xyz gauge"));
        assert!(text.contains("test_metric_xyz{model=\"bert@\\\"1\\\"\"} 0.5"));
        assert!(text.contains("nimble_obs_trace_mode"));
        drop(handle);
        let text = prometheus();
        assert!(!text.contains("test_metric_xyz"));
    }
}
