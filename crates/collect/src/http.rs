//! Shared HTTP/1.1 layer for the collector's read-only surfaces.
//!
//! A deliberately tiny server (std::net only — no framework, no TLS)
//! grown from the original HTTP/1.0 metrics endpoint into the common
//! transport behind *two* services:
//!
//! * the collector's live fleet view (`GET /metrics`, `GET /fleet.json`,
//!   via [`serve_metrics`]), and
//! * the `tempest serve` analysis query daemon
//!   ([`crate::query::QueryServer`]), which mounts the versioned
//!   `/api/v1/*` endpoints on the same machinery.
//!
//! What the layer provides, so handlers don't have to:
//!
//! * **keep-alive** — HTTP/1.1 connections are reused (HTTP/1.0 only on
//!   an explicit `Connection: keep-alive`), capped at
//!   [`HttpConfig::max_requests_per_conn`] requests per connection (the
//!   response that uses up the budget says `Connection: close`);
//! * **a bounded worker pool** — accepted connections are handed to a
//!   fixed set of worker threads over a bounded queue; when the queue is
//!   full the listener answers `503` inline rather than queueing without
//!   bound;
//! * **rate limiting** — an optional server-wide token bucket (the same
//!   2×-burst shape as the collector's ingest shed policy) answering
//!   `429 Too Many Requests` when drained;
//! * **per-connection deadlines and size caps** — a stuck or hostile
//!   client cannot pin a worker, and oversized request heads are refused
//!   with `431`.
//!
//! Handlers are plain `Fn(&Request) -> Response` closures; conditional
//! requests (`ETag` / `If-None-Match` / `304`) are expressed through
//! [`Response::not_modified`] and [`Response::with_header`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request head we will buffer before refusing with `431`.
const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Default per-connection read/write deadline.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Tuning knobs for an [`HttpServer`].
#[derive(Clone)]
pub struct HttpConfig {
    /// Worker threads serving connections (min 1).
    pub workers: usize,
    /// Pending-connection queue depth before the listener sheds `503`.
    pub backlog: usize,
    /// Per-connection read/write deadline.
    pub io_timeout: Duration,
    /// Requests served on one connection before it is closed.
    pub max_requests_per_conn: usize,
    /// Server-wide sustained requests/second; `None` disables the
    /// limiter. Bursts up to 2× are absorbed (token bucket).
    pub rate_limit: Option<u32>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 2,
            backlog: 32,
            io_timeout: IO_TIMEOUT,
            max_requests_per_conn: 64,
            rate_limit: None,
        }
    }
}

/// One parsed request head (GET-only surface; bodies are not read).
pub struct Request {
    /// Request path with the query string stripped.
    pub path: String,
    /// Decoded `key=value` query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `name: value` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// First query parameter named `key`, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Header value by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let want = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }
}

/// A response the layer knows how to frame (status line, `Content-Type`,
/// `Content-Length`, extra headers, keep-alive bookkeeping).
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body (empty for `304`).
    pub body: String,
    /// Additional headers (e.g. `ETag`).
    pub extra_headers: Vec<(String, String)>,
}

impl Response {
    /// A `200 OK` with the given content type and body.
    pub fn ok(content_type: &str, body: impl Into<String>) -> Response {
        Response {
            status: 200,
            content_type: content_type.to_string(),
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<String>) -> Response {
        Response::ok("application/json", body)
    }

    /// A plain-text response with an arbitrary status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain".to_string(),
            body: body.into(),
            extra_headers: Vec::new(),
        }
    }

    /// A bodiless `304 Not Modified` carrying the matching `ETag`.
    pub fn not_modified(etag: &str) -> Response {
        Response {
            status: 304,
            content_type: "application/json".to_string(),
            body: String::new(),
            extra_headers: vec![("ETag".to_string(), etag.to_string())],
        }
    }

    /// Attach an extra header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }
}

/// The handler type a server mounts: pure request → response.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// A running HTTP server; flip the shared stop flag and [`join`] to shut
/// it down ([`HttpServer::join`]). Dropping the handle does not stop it.
pub struct HttpServer {
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the accept loop and every worker to exit (after the stop
    /// flag is set).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Bounded hand-off queue from the accept loop to the workers.
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    capacity: usize,
}

impl ConnQueue {
    fn new(capacity: usize) -> ConnQueue {
        ConnQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue unless full; a full queue hands the stream back so the
    /// caller can shed it.
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= self.capacity {
            return Err(stream);
        }
        q.push_back(stream);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeue, waking periodically to observe the stop flag.
    fn pop(&self, stop: &AtomicBool) -> Option<TcpStream> {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }
}

/// Server-wide token bucket: sustained `rate`/s with a 2× burst — the
/// same shed shape as the collector's ingest rate limit.
struct RateLimiter {
    state: Mutex<(f64, Instant)>,
    rate: f64,
}

impl RateLimiter {
    fn new(rate: u32) -> RateLimiter {
        let rate = f64::from(rate.max(1));
        RateLimiter {
            state: Mutex::new((2.0 * rate, Instant::now())),
            rate,
        }
    }

    fn admit(&self) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let (ref mut bucket, ref mut last) = *s;
        *bucket = (*bucket + last.elapsed().as_secs_f64() * self.rate).min(2.0 * self.rate);
        *last = Instant::now();
        if *bucket < 1.0 {
            return false;
        }
        *bucket -= 1.0;
        true
    }
}

/// Everything a worker needs to serve connections.
struct Shared {
    config: HttpConfig,
    handler: Handler,
    limiter: Option<RateLimiter>,
    /// Invoked whenever the layer sheds (`503` queue-full or `429`
    /// rate-limited) so the mounting service can count it.
    on_shed: Option<Box<dyn Fn() + Send + Sync>>,
}

impl Shared {
    fn shed(&self) {
        if let Some(f) = &self.on_shed {
            f();
        }
    }
}

/// Bind `addr` and serve `handler` from a bounded worker pool until
/// `stop` flips true. `on_shed` (if any) is invoked once per shed
/// response (`503`/`429`) for the caller's metrics.
pub fn serve(
    addr: &str,
    config: HttpConfig,
    handler: Handler,
    stop: Arc<AtomicBool>,
    on_shed: Option<Box<dyn Fn() + Send + Sync>>,
) -> io::Result<HttpServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let bound = listener.local_addr()?;
    let shared = Arc::new(Shared {
        limiter: config.rate_limit.map(RateLimiter::new),
        config,
        handler,
        on_shed,
    });
    let queue = Arc::new(ConnQueue::new(shared.config.backlog));
    let mut threads = Vec::new();
    for i in 0..shared.config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let shared = Arc::clone(&shared);
        let stop = Arc::clone(&stop);
        threads.push(
            std::thread::Builder::new()
                .name(format!("tempest-http-{i}"))
                .spawn(move || {
                    while let Some(stream) = queue.pop(&stop) {
                        let _ = serve_connection(stream, &shared, &stop);
                    }
                })?,
        );
    }
    threads.push(
        std::thread::Builder::new()
            .name("tempest-http-accept".to_string())
            .spawn(move || accept_loop(listener, queue, shared, stop))?,
    );
    Ok(HttpServer {
        addr: bound,
        threads,
    })
}

fn accept_loop(
    listener: TcpListener,
    queue: Arc<ConnQueue>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(mut stream) = queue.push(stream) {
                    // Queue full: shed inline with a fast 503 rather
                    // than queueing without bound or stalling accepts.
                    shared.shed();
                    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
                    let _ =
                        write_response(&mut stream, &Response::text(503, "server busy\n"), false);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Wake any workers parked on an empty queue so they observe stop.
    queue.ready.notify_all();
}

/// Serve one connection: keep-alive loop bounded by the per-connection
/// request cap, the io deadline, and the stop flag.
fn serve_connection(mut stream: TcpStream, shared: &Shared, stop: &AtomicBool) -> io::Result<()> {
    stream.set_read_timeout(Some(shared.config.io_timeout))?;
    stream.set_write_timeout(Some(shared.config.io_timeout))?;
    let mut carry: Vec<u8> = Vec::new();
    let budget = shared.config.max_requests_per_conn;
    for served in 1..=budget {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let (request, keep_alive) = match read_request(&mut stream, &mut carry) {
            // The response that uses up the budget announces the close.
            Ok(Some((request, keep_alive))) => (request, keep_alive && served < budget),
            Ok(None) => break, // clean EOF between requests
            Err(HttpError::TooLarge) => {
                write_response(
                    &mut stream,
                    &Response::text(431, "request head too large\n"),
                    false,
                )?;
                break;
            }
            Err(HttpError::Malformed) => {
                write_response(&mut stream, &Response::text(400, "bad request\n"), false)?;
                break;
            }
            Err(HttpError::Io) => break,
        };
        if let Some(limiter) = &shared.limiter {
            if !limiter.admit() {
                shared.shed();
                write_response(
                    &mut stream,
                    &Response::text(429, "rate limit exceeded\n"),
                    keep_alive,
                )?;
                if keep_alive {
                    continue;
                }
                break;
            }
        }
        let response = (shared.handler)(&request);
        write_response(&mut stream, &response, keep_alive)?;
        if !keep_alive {
            break;
        }
    }
    Ok(())
}

enum HttpError {
    TooLarge,
    Malformed,
    Io,
}

/// Read one request head from the stream (plus any bytes carried over
/// from the previous read on this keep-alive connection). Returns the
/// parsed request and whether the connection should be kept alive, or
/// `None` on clean EOF before any bytes.
fn read_request(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> Result<Option<(Request, bool)>, HttpError> {
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(HttpError::TooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed);
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(HttpError::Io),
        }
    };
    // Pipelined bytes after the head belong to the next request.
    *carry = buf.split_off(head_end + 4);
    let head = String::from_utf8_lossy(&buf);
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(HttpError::Malformed)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or(HttpError::Malformed)?;
    if method != "GET" {
        return Err(HttpError::Malformed);
    }
    let target = parts.next().ok_or(HttpError::Malformed)?;
    let version = parts.next().unwrap_or("HTTP/1.0");
    let (path, query) = parse_target(target);
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let request = Request {
        path,
        query,
        headers,
    };
    let keep_alive = match request.header("connection") {
        Some(v) if v.eq_ignore_ascii_case("close") => false,
        Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
        _ => version == "HTTP/1.1",
    };
    Ok(Some((request, keep_alive)))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Split a request target into path + decoded query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

fn write_response(stream: &mut TcpStream, response: &Response, keep_alive: bool) -> io::Result<()> {
    use std::fmt::Write as _;
    let reason = match response.status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let mut head = format!("HTTP/1.1 {} {reason}\r\n", response.status);
    let _ = write!(head, "Content-Type: {}\r\n", response.content_type);
    let _ = write!(head, "Content-Length: {}\r\n", response.body.len());
    for (name, value) in &response.extra_headers {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    let _ = write!(
        head,
        "Connection: {}\r\n\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------
// The collector's metrics surface, mounted on the shared layer.
// ---------------------------------------------------------------------

use crate::fleet::FleetState;

/// A running metrics server (the collector's `/metrics` + `/fleet.json`
/// surface); flip the shared stop flag and [`MetricsServer::join`].
pub struct MetricsServer {
    inner: HttpServer,
}

impl MetricsServer {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Wait for the serving threads to exit (after the stop flag is set).
    pub fn join(self) {
        self.inner.join()
    }
}

/// Bind `addr` and serve `/metrics` + `/fleet.json` from background
/// threads until `stop` flips true.
pub fn serve_metrics(
    addr: &str,
    fleet: Arc<FleetState>,
    stop: Arc<AtomicBool>,
) -> io::Result<MetricsServer> {
    let handler: Handler = Arc::new(move |req: &Request| match req.path.as_str() {
        "/metrics" => {
            let mut body = tempest_obs::to_prometheus(&tempest_obs::global().snapshot());
            body.push_str(&fleet.to_prometheus());
            Response::ok("text/plain; version=0.0.4", body)
        }
        "/fleet.json" => Response::json(fleet.to_json()),
        _ => Response::text(404, "not found\n"),
    });
    let config = HttpConfig {
        workers: 1,
        ..HttpConfig::default()
    };
    let inner = serve(addr, config, handler, stop, None)?;
    Ok(MetricsServer { inner })
}

// ---------------------------------------------------------------------
// Loopback clients (CLI + tests).
// ---------------------------------------------------------------------

/// Tiny blocking HTTP GET against `addr` (host:port), used by the
/// `tempest fleet` CLI and the loopback smoke tests. Returns the body
/// on a 200, an error otherwise.
pub fn http_get(addr: &str, path: &str) -> io::Result<String> {
    let mut client = HttpClient::connect(addr)?;
    let (status, _headers, body) = client.get(path, &[])?;
    if status != 200 {
        return Err(io::Error::other(format!("http error: status {status}")));
    }
    Ok(body)
}

/// What one GET yields: `(status, headers, body)`, header names
/// lower-cased.
pub type ClientResponse = (u16, Vec<(String, String)>, String);

/// A persistent keep-alive HTTP/1.1 client for loopback use: issues
/// sequential GETs on one connection, exposing status, headers, and
/// body — enough to exercise ETag revalidation and keep-alive reuse.
pub struct HttpClient {
    stream: TcpStream,
    addr: String,
    carry: Vec<u8>,
}

impl HttpClient {
    /// Connect to `addr` (host:port) with the default io deadline.
    pub fn connect(addr: &str) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(HttpClient {
            stream,
            addr: addr.to_string(),
            carry: Vec::new(),
        })
    }

    /// Issue one GET with extra headers; returns
    /// `(status, headers, body)`. Headers come back lower-cased.
    pub fn get(&mut self, path: &str, headers: &[(&str, &str)]) -> io::Result<ClientResponse> {
        use std::fmt::Write as _;
        let mut req = format!("GET {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (name, value) in headers {
            let _ = write!(req, "{name}: {value}\r\n");
        }
        req.push_str("\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut buf = std::mem::take(&mut self.carry);
        let mut chunk = [0u8; 1024];
        let head_end = loop {
            if let Some(pos) = find_head_end(&buf) {
                break pos;
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("eof before header terminator")),
                n => buf.extend_from_slice(&chunk[..n]),
            }
        };
        let rest = buf.split_off(head_end + 4);
        let head = String::from_utf8_lossy(&buf).into_owned();
        let mut lines = head.lines();
        let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("unparsable status line"))?;
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                }
                headers.push((name, value));
            }
        }
        let mut body_bytes = rest;
        while body_bytes.len() < content_length {
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("eof mid-body")),
                n => body_bytes.extend_from_slice(&chunk[..n]),
            }
        }
        self.carry = body_bytes.split_off(content_length);
        let body = String::from_utf8_lossy(&body_bytes).into_owned();
        Ok((status, headers, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempest_obs::Json;

    #[test]
    fn serves_metrics_and_fleet_json() {
        let fleet = Arc::new(FleetState::default());
        let reg = tempest_obs::Registry::new();
        reg.counter("spool_frames_total").add(12);
        fleet.update(
            "demo-node0",
            "demo",
            tempest_obs::Telemetry {
                node_id: 0,
                hostname: "h0".to_string(),
                origin_unix_ns: tempest_obs::unix_now_ns(),
                snapshot: reg.snapshot(),
            },
        );
        let stop = Arc::new(AtomicBool::new(false));
        let server = serve_metrics("127.0.0.1:0", fleet, stop.clone()).expect("bind");
        let addr = server.addr().to_string();

        let prom = http_get(&addr, "/metrics").expect("/metrics");
        assert!(prom.contains("fleet_nodes 1"));
        assert!(
            prom.contains("fleet_node_counter{node=\"demo-node0\",name=\"spool_frames_total\"} 12")
        );

        let body = http_get(&addr, "/fleet.json").expect("/fleet.json");
        let v = Json::parse(&body).expect("fleet.json parses");
        assert_eq!(v.get("node_count").unwrap().as_f64(), Some(1.0));

        assert!(http_get(&addr, "/nope").is_err(), "unknown path is a 404");

        stop.store(true, Ordering::Relaxed);
        server.join();
    }

    #[test]
    fn keep_alive_reuses_one_connection() {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::json(format!("{{\"path\":\"{}\"}}\n", req.path)).with_header("ETag", "\"x\"")
        });
        let stop = Arc::new(AtomicBool::new(false));
        let server = serve(
            "127.0.0.1:0",
            HttpConfig::default(),
            handler,
            stop.clone(),
            None,
        )
        .expect("bind");
        let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
        for i in 0..5 {
            let (status, headers, body) = client.get(&format!("/r{i}"), &[]).expect("get");
            assert_eq!(status, 200);
            assert!(body.contains(&format!("/r{i}")));
            assert!(headers.iter().any(|(k, v)| k == "etag" && v == "\"x\""));
            assert!(headers
                .iter()
                .any(|(k, v)| k == "connection" && v == "keep-alive"));
        }
        stop.store(true, Ordering::Relaxed);
        server.join();
    }

    #[test]
    fn last_response_of_the_request_budget_says_close() {
        let handler: Handler = Arc::new(|_req: &Request| Response::json("{}\n"));
        let stop = Arc::new(AtomicBool::new(false));
        let config = HttpConfig {
            max_requests_per_conn: 2,
            ..HttpConfig::default()
        };
        let server = serve("127.0.0.1:0", config, handler, stop.clone(), None).expect("bind");
        let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
        let connection = |headers: &[(String, String)]| {
            headers
                .iter()
                .find(|(k, _)| k == "connection")
                .map(|(_, v)| v.clone())
        };
        let (_, first, _) = client.get("/a", &[]).expect("first request");
        assert_eq!(connection(&first).as_deref(), Some("keep-alive"));
        let (_, second, _) = client.get("/b", &[]).expect("second request");
        assert_eq!(connection(&second).as_deref(), Some("close"));
        assert!(
            client.get("/c", &[]).is_err(),
            "the server closed the connection after its budget"
        );
        stop.store(true, Ordering::Relaxed);
        server.join();
    }

    #[test]
    fn rate_limit_sheds_429_not_stalls() {
        let handler: Handler = Arc::new(|_req: &Request| Response::json("{}\n"));
        let shed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let shed2 = Arc::clone(&shed);
        let stop = Arc::new(AtomicBool::new(false));
        let config = HttpConfig {
            rate_limit: Some(2),
            ..HttpConfig::default()
        };
        let server = serve(
            "127.0.0.1:0",
            config,
            handler,
            stop.clone(),
            Some(Box::new(move || {
                shed2.fetch_add(1, Ordering::Relaxed);
            })),
        )
        .expect("bind");
        let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
        let mut saw_429 = 0;
        let started = Instant::now();
        for _ in 0..32 {
            let (status, _, _) = client.get("/", &[]).expect("get");
            if status == 429 {
                saw_429 += 1;
            }
        }
        assert!(saw_429 > 0, "burst past the bucket must shed");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "shedding must not stall the client"
        );
        assert!(shed.load(Ordering::Relaxed) >= u64::from(saw_429 as u32));
        stop.store(true, Ordering::Relaxed);
        server.join();
    }

    #[test]
    fn oversized_head_is_refused() {
        let handler: Handler = Arc::new(|_req: &Request| Response::json("{}\n"));
        let stop = Arc::new(AtomicBool::new(false));
        let server = serve(
            "127.0.0.1:0",
            HttpConfig::default(),
            handler,
            stop.clone(),
            None,
        )
        .expect("bind");
        let mut client = HttpClient::connect(&server.addr().to_string()).expect("connect");
        let huge = "x".repeat(2 * MAX_REQUEST_BYTES);
        let result = client.get("/", &[("X-Junk", &huge)]);
        // An Err is fine too: the server may close the socket before the
        // client finishes writing the oversized header.
        if let Ok((status, _, _)) = result {
            assert_eq!(status, 431);
        }
        stop.store(true, Ordering::Relaxed);
        server.join();
    }
}
