//! Structured JSONL event log for serving-lifecycle events.
//!
//! Hot-swaps, replica kills and retires, autoscale decisions, specialize
//! installs/evictions, shed bursts and SLO watchdog transitions exist
//! today only as counters; this module gives each one a structured JSON
//! line in a bounded in-memory ring (and, optionally, an append-only
//! file sink via `NIMBLE_EVENTS_FILE`). Every line is stamped with the
//! emitting thread's active trace id so an event can be joined against a
//! retained flight-recorder trace.
//!
//! Line schema:
//!
//! ```json
//! {"ts_ns":123,"kind":"replica_killed","model":"bert","trace":42,"replica":3}
//! ```
//!
//! `ts_ns` is the [`crate::now_ns`] clock; `trace` is present only when
//! the emitting thread had a sampled context. Remaining fields are
//! event-specific.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Events retained in the in-memory ring.
pub const EVENT_RING: usize = 1024;

/// One event field value.
#[derive(Debug, Clone, Copy)]
pub enum FieldVal<'a> {
    /// A JSON string (escaped on emit).
    Str(&'a str),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float (non-finite values emit as `null`).
    F64(f64),
    /// A boolean.
    Bool(bool),
}

struct EventLog {
    ring: VecDeque<String>,
    sink: Option<(PathBuf, std::fs::File)>,
    sink_init: bool,
}

impl EventLog {
    /// The file sink, attached from `NIMBLE_EVENTS_FILE` on first use.
    fn sink(&mut self) -> Option<&mut (PathBuf, std::fs::File)> {
        if !self.sink_init {
            self.sink_init = true;
            self.sink = std::env::var("NIMBLE_EVENTS_FILE")
                .ok()
                .filter(|p| !p.is_empty())
                .and_then(|p| open_sink(Path::new(&p)));
        }
        self.sink.as_mut()
    }
}

fn open_sink(path: &Path) -> Option<(PathBuf, std::fs::File)> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .ok()?;
    Some((path.to_path_buf(), file))
}

fn log() -> &'static Mutex<EventLog> {
    static LOG: OnceLock<Mutex<EventLog>> = OnceLock::new();
    LOG.get_or_init(|| {
        Mutex::new(EventLog {
            ring: VecDeque::with_capacity(EVENT_RING),
            sink: None,
            sink_init: false,
        })
    })
}

static TOTAL: AtomicU64 = AtomicU64::new(0);

/// Emit one structured event line. `model` may be empty for process-wide
/// events. Cheap enough for lifecycle events (one allocation + one lock);
/// not meant for per-span use.
pub fn emit(kind: &str, model: &str, fields: &[(&str, FieldVal)]) {
    let mut line = String::with_capacity(96);
    let _ = write!(line, "{{\"ts_ns\":{},\"kind\":\"", crate::now_ns());
    crate::export::escape_json(kind, &mut line);
    line.push_str("\",\"model\":\"");
    crate::export::escape_json(model, &mut line);
    line.push('"');
    let ctx = crate::current();
    if ctx.is_sampled() {
        let _ = write!(line, ",\"trace\":{}", ctx.trace);
    }
    for (k, v) in fields {
        line.push_str(",\"");
        crate::export::escape_json(k, &mut line);
        line.push_str("\":");
        match v {
            FieldVal::Str(s) => {
                line.push('"');
                crate::export::escape_json(s, &mut line);
                line.push('"');
            }
            FieldVal::U64(n) => {
                let _ = write!(line, "{n}");
            }
            FieldVal::I64(n) => {
                let _ = write!(line, "{n}");
            }
            FieldVal::F64(f) if f.is_finite() => {
                let _ = write!(line, "{f}");
            }
            FieldVal::F64(_) => line.push_str("null"),
            FieldVal::Bool(b) => {
                let _ = write!(line, "{b}");
            }
        }
    }
    line.push('}');
    TOTAL.fetch_add(1, Ordering::Relaxed);
    let mut log = log().lock().unwrap();
    if let Some((_, sink)) = log.sink() {
        let _ = writeln!(sink, "{line}");
    }
    if log.ring.len() == EVENT_RING {
        log.ring.pop_front();
    }
    log.ring.push_back(line);
}

/// The ring's contents as JSONL text (oldest first, one event per line).
pub fn events_jsonl() -> String {
    let log = log().lock().unwrap();
    let mut out = String::with_capacity(log.ring.iter().map(|l| l.len() + 1).sum());
    for line in &log.ring {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// The most recent `n` event lines, oldest first.
pub fn recent_events(n: usize) -> Vec<String> {
    let log = log().lock().unwrap();
    log.ring.iter().rev().take(n).rev().cloned().collect()
}

/// Events emitted since the last [`reset_events`] (including ones that
/// have rolled off the ring).
pub fn events_total() -> u64 {
    TOTAL.load(Ordering::Relaxed)
}

/// Clear the ring and counter (tests; the file sink is left attached).
pub fn reset_events() {
    log().lock().unwrap().ring.clear();
    TOTAL.store(0, Ordering::Relaxed);
}

/// Where event lines are being appended: the effective value of
/// `NIMBLE_EVENTS_FILE` (`None` when unset or the file could not be
/// opened).
pub fn event_sink_path() -> Option<PathBuf> {
    let mut log = log().lock().unwrap();
    log.sink().map(|(path, _)| path.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global; serialize tests that reset it.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static M: Mutex<()> = Mutex::new(());
        M.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn events_are_valid_jsonl() {
        let _l = lock();
        reset_events();
        emit(
            "hot_swap",
            "bert\"v2\"",
            &[
                ("from", FieldVal::Str("v1")),
                ("to", FieldVal::Str("v2")),
                ("in_flight", FieldVal::U64(7)),
                ("ratio", FieldVal::F64(0.5)),
                ("graceful", FieldVal::Bool(true)),
                ("delta", FieldVal::I64(-3)),
            ],
        );
        let text = events_jsonl();
        let line = text.lines().last().unwrap();
        let v = crate::json::parse(line).expect("event line parses");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("hot_swap"));
        assert_eq!(v.get("model").unwrap().as_str(), Some("bert\"v2\""));
        assert_eq!(v.get("in_flight").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("ratio").unwrap().as_f64(), Some(0.5));
        assert_eq!(v.get("graceful").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("delta").unwrap().as_f64(), Some(-3.0));
        assert!(v.get("ts_ns").unwrap().as_u64().is_some());
        assert!(events_total() >= 1);
        reset_events();
    }

    #[test]
    fn ring_is_bounded() {
        let _l = lock();
        reset_events();
        for i in 0..EVENT_RING + 50 {
            emit("tick", "m", &[("i", FieldVal::U64(i as u64))]);
        }
        let text = events_jsonl();
        assert_eq!(text.lines().count(), EVENT_RING);
        assert_eq!(events_total(), (EVENT_RING + 50) as u64);
        // Oldest events rolled off.
        let first = crate::json::parse(text.lines().next().unwrap()).unwrap();
        assert_eq!(first.get("i").unwrap().as_u64(), Some(50));
        reset_events();
    }
}
