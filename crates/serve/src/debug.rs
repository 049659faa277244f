//! Live debug endpoint: a dependency-free HTTP/1.1 server over the
//! router's observability surfaces.
//!
//! Routes:
//!
//! | path           | payload                                              |
//! |----------------|------------------------------------------------------|
//! | `/`            | plain-text route index                               |
//! | `/metrics`     | Prometheus/OpenMetrics exposition (with exemplars)   |
//! | `/traces`      | JSON index of retained flight-recorder traces        |
//! | `/traces/<id>` | one retained trace as Chrome trace JSON (404 if gone)|
//! | `/events`      | structured event log, one JSON object per line       |
//! | `/status`      | effective `NIMBLE_*` knobs, then the [`ServeStats`](crate::ServeStats) table |
//!
//! Built on `std::net::TcpListener` only — no HTTP library. The server
//! reads just the request line (method + path; at most 8 KiB, within one
//! 500 ms deadline), answers one response per connection
//! (`Connection: close`), and ignores headers and bodies.
//! Intended for `curl` and scrapers on a trusted interface, not the
//! public internet.

use crate::router::Router;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The debug HTTP server; listens until dropped (or [`stop`]ped).
///
/// [`stop`]: DebugServer::stop
pub struct DebugServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for DebugServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DebugServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl DebugServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve the debug routes for `router` on a background thread.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn spawn(router: Arc<Router>, addr: &str) -> std::io::Result<DebugServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("nimble-debug-http".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = conn else { continue };
                    // One short-lived connection at a time: every route
                    // renders from in-memory state, so even a slow client
                    // can stall the loop only until the request deadline.
                    let _ = handle_conn(stream, &router);
                }
            })
            .expect("spawn debug http thread");
        Ok(DebugServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread. Idempotent.
    pub fn stop(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.stop.store(true, Ordering::Release);
        // The accept loop blocks in `incoming()`; poke it awake with a
        // throwaway connection to our own port.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for DebugServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The longest request line the server reads.
const MAX_REQUEST_LINE: u64 = 8 * 1024;
/// How long a client has to send its whole request line.
const REQUEST_DEADLINE: Duration = Duration::from_millis(500);

/// Socket reads sharing one deadline: each read waits only for what is
/// left of it, so a client trickling bytes cannot hold the server thread
/// past the deadline.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request line deadline passed",
            ));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

fn handle_conn(mut stream: TcpStream, router: &Arc<Router>) -> std::io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let deadline = Deadline {
        stream: &stream,
        at: Instant::now() + REQUEST_DEADLINE,
    };
    let mut raw = Vec::new();
    BufReader::new(deadline.take(MAX_REQUEST_LINE)).read_until(b'\n', &mut raw)?;
    let line = String::from_utf8_lossy(&raw);
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed\n");
    }
    route(&mut stream, router, path)
}

fn route(stream: &mut TcpStream, router: &Arc<Router>, path: &str) -> std::io::Result<()> {
    match path {
        "/" => respond(
            stream,
            200,
            "text/plain; charset=utf-8",
            "nimble debug endpoint\n\
             /metrics      Prometheus exposition with exemplars\n\
             /traces       retained flight-recorder trace index (JSON)\n\
             /traces/<id>  one retained trace (Chrome trace JSON)\n\
             /events       structured event log (JSONL)\n\
             /status       serve stats table (text)\n",
        ),
        "/metrics" => respond(
            stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &router.prometheus(),
        ),
        "/traces" => respond(
            stream,
            200,
            "application/json",
            &nimble_obs::flight::index_json(),
        ),
        "/events" => respond(
            stream,
            200,
            "application/x-ndjson",
            &nimble_obs::events::events_jsonl(),
        ),
        "/status" => respond(
            stream,
            200,
            "text/plain; charset=utf-8",
            &format!("{}\n{}", knobs_line(), router.stats()),
        ),
        _ => {
            if let Some(id) = path.strip_prefix("/traces/") {
                if let Some(json) = id
                    .parse::<u64>()
                    .ok()
                    .and_then(nimble_obs::flight::chrome_json)
                {
                    return respond(stream, 200, "application/json", &json);
                }
                return respond(stream, 404, "text/plain", "no such retained trace\n");
            }
            respond(stream, 404, "text/plain", "not found\n")
        }
    }
}

/// The effective value of each of the four process knobs, on one line —
/// what the process resolved, not what the environment said (a rejected
/// `NIMBLE_TRACE` shows `off`, an unavailable `NIMBLE_SIMD` the ISA in
/// use).
fn knobs_line() -> String {
    let mut trace = format!("{:?}", nimble_obs::mode()).to_lowercase();
    if trace == "tail" {
        trace = format!("tail:{}", nimble_obs::flight::tail_multiplier());
    }
    let events = nimble_obs::events::event_sink_path();
    format!(
        "NIMBLE_TRACE={trace} NIMBLE_TRACE_DETAIL={} NIMBLE_SIMD={} NIMBLE_EVENTS_FILE={}",
        format!("{:?}", nimble_obs::detail()).to_lowercase(),
        nimble_tensor::pool::default_profile().isa().label(),
        events.map_or("-".into(), |p| p.display().to_string()),
    )
}

fn respond(
    stream: &mut TcpStream,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        let code: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (code, body)
    }

    #[test]
    fn routes_respond_and_unknowns_404() {
        let registry = Arc::new(crate::registry::ModelRegistry::new(
            crate::registry::RegistryConfig::default(),
        ));
        let router = Arc::new(Router::new(
            registry,
            crate::router::RouterConfig::default(),
        ));
        let server = DebugServer::spawn(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let addr = server.addr();

        let (code, body) = get(addr, "/");
        assert_eq!(code, 200);
        assert!(body.contains("/metrics"));
        let (code, body) = get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(body.contains("nimble_obs_trace_mode"));
        let (code, body) = get(addr, "/traces");
        assert_eq!(code, 200);
        nimble_obs::json::parse(&body).expect("trace index is valid JSON");
        let (code, _) = get(addr, "/events");
        assert_eq!(code, 200);
        let (code, body) = get(addr, "/status");
        assert_eq!(code, 200);
        assert!(body.starts_with("NIMBLE_TRACE="), "knob line first: {body}");
        assert!(body.contains("NIMBLE_EVENTS_FILE=") && body.contains("\nmodel"));
        let (code, _) = get(addr, "/nope");
        assert_eq!(code, 404);
        let (code, _) = get(addr, "/traces/999999999");
        assert_eq!(code, 404);
    }

    #[test]
    fn trickling_client_is_cut_off_and_the_server_recovers() {
        let registry = Arc::new(crate::registry::ModelRegistry::new(
            crate::registry::RegistryConfig::default(),
        ));
        let router = Arc::new(Router::new(
            registry,
            crate::router::RouterConfig::default(),
        ));
        let server = DebugServer::spawn(Arc::clone(&router), "127.0.0.1:0").unwrap();
        let addr = server.addr();
        // One byte every ~20 ms and never a newline: every read succeeds,
        // so only the request deadline can end the connection.
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let start = Instant::now();
        let closed = loop {
            if start.elapsed() > Duration::from_secs(3) {
                break false;
            }
            if slow.write_all(b"G").is_err() {
                break true;
            }
            match slow.read(&mut [0u8; 64]) {
                Ok(0) => break true,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => break true,
            }
        };
        let took = start.elapsed();
        assert!(closed, "a trickling client held the server for {took:?}");
        assert!(
            took < Duration::from_millis(1200),
            "cut off only after {took:?}"
        );
        let (code, _) = get(addr, "/status");
        assert_eq!(code, 200);
    }
}
