//! The `hotwire serve` HTTP layer: a dependency-free blocking listener
//! that makes the metrics registry scrapeable and the coupled signoff
//! engine callable while the process stays up.
//!
//! Endpoints:
//!
//! * `GET /metrics` — the process-wide registry in Prometheus
//!   text-exposition format 0.0.4 ([`hotwire_obs::prom`]).
//! * `GET /healthz` — liveness; `200 ok` whenever the accept loop runs.
//! * `POST /signoff` — runs one coupled EM–IR–thermal signoff on the
//!   server's template grid (optionally overridden by a JSON body with
//!   `rows`/`cols`) and returns a JSON verdict. Each request exercises
//!   the real engine, so scraping `/metrics` during a load burst shows
//!   the solver's latency distribution, not synthetic numbers.
//!
//! The implementation is std-only: a blocking [`TcpListener`] accept
//! loop hands connections to a small fixed pool of workers over an
//! [`mpsc`] channel. Each worker runs its requests inside a one-thread
//! rayon pool, so the server runs requests side by side instead of
//! spreading one small solve over threads. Signal handlers only set
//! flags, and a blocking `accept` does not return for a signal, so an
//! idle worker wakes the loop for them: when the shutdown flag or
//! [`dump_flag`] is set, it connects to the listener, and the loop
//! re-checks both flags after every accept. HTTP support is the minimal
//! correct subset: one request per connection, `Connection: close`
//! semantics, bodies up to [`MAX_REQUEST_BYTES`]. A connection that
//! closes without sending a byte (the wake connection, a TCP liveness
//! probe) is closed silently.
//!
//! Every response carries a process-unique `X-Hotwire-Request-Id`
//! header. The same ID tags the request's root `serve.request` span
//! (whose latency histogram is scrapeable on `/metrics`) and any
//! structured error event the handler emits, so a failing client call
//! can be matched to the server-side diagnostics it produced.

use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hotwire_coupled::{CoupledEngine, CoupledError, CoupledGridSpec, CoupledOptions};
use hotwire_obs::json::Json;
use hotwire_obs::trace::{self, FieldValue, Level};
use hotwire_obs::{metrics, prom, recorder};

/// Hard cap on a request (start line + headers + body); larger
/// requests are answered `413` and the connection dropped.
pub const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// How often an idle worker reads the shutdown and dump flags; a set
/// flag wakes the accept loop within about this long.
const WATCH_INTERVAL: Duration = Duration::from_millis(10);

/// Per-connection socket read timeout, so a stalled client cannot pin
/// a worker forever.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// What the server needs besides a socket: worker count and the
/// signoff template a `POST /signoff` instantiates.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads handling accepted connections.
    pub threads: usize,
    /// Grid template for per-request signoffs.
    pub spec: CoupledGridSpec,
    /// Solver options for per-request signoffs.
    pub options: CoupledOptions,
    /// Where diagnostic bundles land (failed signoffs, SIGUSR1
    /// snapshots). `None` disables bundle writing.
    pub bundle_dir: Option<String>,
}

impl ServeConfig {
    /// A small default: 4 workers, the demo 20×20 grid, no bundles.
    #[must_use]
    pub fn demo() -> Self {
        Self {
            threads: 4,
            spec: CoupledGridSpec::demo(20, 20),
            options: CoupledOptions::default(),
            bundle_dir: None,
        }
    }
}

/// Operator-requested bundle-dump flag: the CLI's SIGUSR1 handler sets
/// it (an atomic store is async-signal-safe), an idle worker wakes the
/// accept loop for it, and the loop clears it after the accept —
/// the dump itself runs on the server thread, not in the handler.
static DUMP_REQUEST: AtomicBool = AtomicBool::new(false);

/// The flag a SIGUSR1 handler should set to request a diagnostic
/// bundle from a running [`Server`].
#[must_use]
pub fn dump_flag() -> &'static AtomicBool {
    &DUMP_REQUEST
}

/// A bound-but-not-yet-serving listener, so callers (and the e2e test)
/// can learn the ephemeral port before the accept loop starts.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:9184`, or port `0` for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (port taken, privileged port, …).
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener })
    }

    /// The actual bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Propagates the socket introspection failure.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` becomes `true`, then drains the worker
    /// pool and returns. The accept blocks; an idle worker connects to
    /// the listener once `shutdown` or [`dump_flag`] is set (within
    /// [`WATCH_INTERVAL`]), so a signal handler that only sets a flag
    /// still produces a graceful exit or a bundle on an idle server.
    ///
    /// # Errors
    ///
    /// Returns the error that made the listener unusable; per-connection
    /// I/O failures are counted (`serve.errors`) and do not stop the
    /// loop.
    pub fn run(self, config: &ServeConfig, shutdown: &Arc<AtomicBool>) -> io::Result<()> {
        let wake_addr = loopback_for(self.listener.local_addr()?);
        // One rayon thread per request: the workers already run requests
        // side by side, and a small solve gains nothing from forking more.
        let pools = (0..config.threads.max(1))
            .map(|_| rayon::ThreadPoolBuilder::new().num_threads(1).build())
            .collect::<Result<Vec<_>, _>>()
            .map_err(io::Error::other)?;
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut workers = Vec::new();
        for pool in pools {
            let rx = Arc::clone(&rx);
            let config = config.clone();
            let shutdown = Arc::clone(shutdown);
            workers.push(std::thread::spawn(move || loop {
                // Holding the lock only for recv keeps hand-off fair.
                let next = rx
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .recv_timeout(WATCH_INTERVAL);
                match next {
                    Ok(stream) => pool.install(|| handle_connection(stream, &config)),
                    Err(RecvTimeoutError::Timeout) => wake_if_flagged(wake_addr, &shutdown),
                    Err(RecvTimeoutError::Disconnected) => break, // shutting down
                }
            }));
        }
        let result = self.accept_loop(config, shutdown, &tx);
        drop(tx); // workers drain queued connections, then exit
        for w in workers {
            let _ = w.join();
        }
        result
    }

    /// Accepts connections and hands them to the workers until
    /// `shutdown` is set. Both flags are re-checked after every accept,
    /// which is how a worker's wake connection takes effect.
    fn accept_loop(
        &self,
        config: &ServeConfig,
        shutdown: &AtomicBool,
        tx: &mpsc::Sender<TcpStream>,
    ) -> io::Result<()> {
        // SAFETY(ordering): SeqCst loads pairing with the signal
        // handler's SeqCst store; the loop only needs to eventually
        // observe the flag, and stronger-than-needed is fine here.
        while !shutdown.load(Ordering::SeqCst) {
            let accepted = self.listener.accept();
            // SAFETY(ordering): the same SeqCst load as the loop head.
            if shutdown.load(Ordering::SeqCst) {
                break; // drops the wake connection (or a client arriving now)
            }
            // SAFETY(ordering): swap is the whole protocol — the handler
            // stores true, exactly one accept observes and clears it.
            if DUMP_REQUEST.swap(false, Ordering::SeqCst) {
                match &config.bundle_dir {
                    Some(dir) => match recorder::write_bundle(
                        dir,
                        "sigusr1",
                        "operator-requested snapshot (SIGUSR1)",
                        None,
                        None,
                    ) {
                        Ok(path) => println!("diagnostic bundle: {path}"),
                        Err(_) => metrics::counter("serve.errors").inc(),
                    },
                    None => recorder::record(
                        "error",
                        format_args!("SIGUSR1 received but no --bundle-dir configured"),
                    ),
                }
            }
            match accepted {
                // A wake connection goes to a worker too: it sends no
                // bytes and is closed silently.
                Ok((stream, _peer)) => {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// The address a wake connection dials: the listener's own, with an
/// unspecified IP (`0.0.0.0`, `::`) replaced by loopback.
fn loopback_for(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V4(Ipv4Addr::LOCALHOST)),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(IpAddr::V6(Ipv6Addr::LOCALHOST)),
        _ => {}
    }
    addr
}

/// Run by an idle worker every [`WATCH_INTERVAL`]: if the shutdown or
/// dump flag is set, connects to `wake_addr` so the blocking accept
/// returns and the loop sees the flag. A wake that races a real client
/// is harmless: the loop checks the flags after any accept, and a spare
/// wake connection is closed silently by a worker. When every worker is
/// busy, the next accept or the first worker to finish sees the flag.
fn wake_if_flagged(wake_addr: SocketAddr, shutdown: &AtomicBool) {
    // SAFETY(ordering): SeqCst loads paired with the signal handlers'
    // SeqCst stores; only eventual visibility matters.
    if shutdown.load(Ordering::SeqCst) || DUMP_REQUEST.load(Ordering::SeqCst) {
        let _ = TcpStream::connect_timeout(&wake_addr, WATCH_INTERVAL);
    }
}

/// A parsed-enough HTTP request: method, path, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased by the parser).
    pub method: String,
    /// Path without query string.
    pub path: String,
    /// Raw body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// A response ready to serialize: status, content type, body, and the
/// request ID echoed back as `X-Hotwire-Request-Id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Server-assigned request ID (`req-xxxxxxxx`), sent back in the
    /// `X-Hotwire-Request-Id` header so a client-observed failure can
    /// be matched to the server's structured error events and the
    /// captured `serve.request` span.
    pub request_id: Option<String>,
}

impl Response {
    fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
            request_id: None,
        }
    }

    fn json(status: u16, body: &Json) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: format!("{}\n", body.to_pretty_string()).into_bytes(),
            request_id: None,
        }
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            _ => "Internal Server Error",
        }
    }
}

/// Process-wide allocator behind every `X-Hotwire-Request-Id`.
static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates the next request ID in its rendered `req-xxxxxxxx` form.
fn next_request_id() -> String {
    format!(
        "req-{:08x}",
        // SAFETY(ordering): pure ID allocator — uniqueness is the only
        // requirement, which fetch_add guarantees at any ordering.
        NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed)
    )
}

/// Routes one request. Pure (no I/O beyond the signoff engine), so the
/// unit tests exercise every endpoint without opening sockets.
///
/// Every request gets a process-unique ID: it roots the request-scoped
/// `serve.request` span (feeding the latency histogram of the same
/// name on `/metrics`), tags any structured error event the handler
/// emits, and is echoed to the client via [`Response::request_id`].
#[must_use]
pub fn route(request: &Request, config: &ServeConfig) -> Response {
    metrics::counter("serve.requests").inc();
    let request_id = next_request_id();
    let _span = trace::span_with(
        "serve.request",
        &[("request_id", FieldValue::Str(&request_id))],
    );
    let mut response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/metrics") => Response {
            status: 200,
            // The exposition-format content type, version pinned.
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: prom::render(&metrics::snapshot()).into_bytes(),
            request_id: None,
        },
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("POST", "/signoff") => signoff_response(&request.body, config, &request_id),
        (_, "/metrics" | "/healthz" | "/signoff") => Response::text(405, "method not allowed\n"),
        _ => Response::text(404, "not found\n"),
    };
    recorder::record(
        "request",
        format_args!(
            "{request_id} {} {} -> {}",
            request.method, request.path, response.status
        ),
    );
    response.request_id = Some(request_id);
    response
}

/// Runs one coupled signoff from the template (body may override
/// `rows`/`cols`) and renders the verdict as JSON. Engine failures are
/// logged as structured error events carrying `request_id`, and the
/// same ID rides in the 500 body so the client can quote it.
fn signoff_response(body: &[u8], config: &ServeConfig, request_id: &str) -> Response {
    let mut spec = config.spec.clone();
    if !body.is_empty() {
        let Ok(text) = std::str::from_utf8(body) else {
            return Response::text(400, "body is not UTF-8\n");
        };
        let parsed = match hotwire_obs::json::parse(text) {
            Ok(v) => v,
            Err(e) => return Response::text(400, format!("bad JSON body: {e}\n")),
        };
        let dim = |key: &str, default: usize| -> Result<usize, Response> {
            match parsed.get(key) {
                None => Ok(default),
                Some(v) => v
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .filter(|&n| (2..=500).contains(&n))
                    .ok_or_else(|| {
                        Response::text(400, format!("`{key}` must be an integer in [2, 500]\n"))
                    }),
            }
        };
        match (dim("rows", spec.rows), dim("cols", spec.cols)) {
            (Ok(rows), Ok(cols)) => {
                spec.rows = rows;
                spec.cols = cols;
                // The demo pad layout is the four corners; keep it
                // valid for the overridden dimensions.
                spec.pads = vec![(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)];
            }
            (Err(r), _) | (_, Err(r)) => return r,
        }
    }
    metrics::counter("serve.signoffs").inc();
    let _timer = metrics::timer("serve.signoff").start();
    // Keep the engine reachable on failure: its health report (Picard
    // rate fit, condition estimate, residuals) goes into the bundle.
    let result: Result<_, (CoupledError, Option<Json>)> =
        match CoupledEngine::new(spec, config.options.clone()) {
            Err(e) => Err((e, None)),
            Ok(mut engine) => match engine.run().and_then(|()| engine.assess()) {
                Ok(report) => Ok(report),
                Err(e) => {
                    let health = engine.health_report().to_json();
                    Err((e, Some(health)))
                }
            },
        };
    match result {
        Ok(report) => {
            let violations = report.violations().len();
            Response::json(
                200,
                &Json::object([
                    ("ok", Json::from(report.passes())),
                    (
                        "iterations",
                        Json::from(u64::try_from(report.iterations).unwrap_or(0)),
                    ),
                    (
                        "worst_ir_drop_mv",
                        Json::from(report.worst_ir_drop.value() * 1e3),
                    ),
                    (
                        "peak_temperature_c",
                        Json::from(report.peak_temperature.to_celsius().value()),
                    ),
                    (
                        "straps",
                        Json::from(u64::try_from(report.branches.len()).unwrap_or(0)),
                    ),
                    (
                        "violations",
                        Json::from(u64::try_from(violations).unwrap_or(0)),
                    ),
                    (
                        "chip_ttf_hours",
                        report
                            .chip_ttf
                            .map_or(Json::Null, |t| Json::from(t.value() / 3600.0)),
                    ),
                ]),
            )
        }
        Err((e, health)) => {
            metrics::counter("serve.errors").inc();
            let message = e.to_string();
            trace::event(
                Level::Error,
                "serve",
                "signoff failed",
                &[
                    ("request_id", FieldValue::Str(request_id)),
                    ("error", FieldValue::Str(&message)),
                ],
            );
            recorder::record(
                "error",
                format_args!("{request_id} signoff failed: {message}"),
            );
            // A failed request is exactly when the flight recorder pays
            // off: freeze it into a bundle and quote the path next to
            // the request ID, so `hotwire doctor <bundle>` picks up
            // where the 500 left off.
            let bundle_path = config.bundle_dir.as_deref().and_then(|dir| {
                recorder::write_bundle(
                    dir,
                    "request-error",
                    &format!("{request_id}: {message}"),
                    health.as_ref(),
                    None,
                )
                .ok()
            });
            Response::json(
                500,
                &Json::object([
                    ("error", Json::from(message)),
                    ("request_id", Json::from(request_id)),
                    ("bundle", bundle_path.map_or(Json::Null, Json::from)),
                ]),
            )
        }
    }
}

/// Reads one request off the stream, routes it, writes the response,
/// closes. Any protocol or I/O failure just counts an error — a broken
/// client must not take the server down. A connection closed before
/// its first byte is not a request: it is closed without a response.
fn handle_connection(stream: TcpStream, config: &ServeConfig) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let mut stream = stream;
    let response = match read_request(&mut stream) {
        Ok(Some(request)) => route(&request, config),
        Ok(None) => return,
        Err(status) => {
            metrics::counter("serve.errors").inc();
            let request_id = next_request_id();
            trace::event(
                Level::Error,
                "serve",
                "unreadable request",
                &[
                    ("request_id", FieldValue::Str(&request_id)),
                    ("status", FieldValue::U64(u64::from(status))),
                ],
            );
            let mut response = Response::text(status, "bad request\n");
            response.request_id = Some(request_id);
            response
        }
    };
    let mut header = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    );
    if let Some(id) = &response.request_id {
        header.push_str(&format!("X-Hotwire-Request-Id: {id}\r\n"));
    }
    header.push_str("Connection: close\r\n\r\n");
    let _ = stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(&response.body))
        .and_then(|()| stream.flush());
}

/// Reads start line + headers + `Content-Length` body. Returns `None`
/// when the peer closed without sending a byte, and the HTTP status to
/// answer with on failure.
fn read_request(stream: &mut impl Read) -> Result<Option<Request>, u16> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0_u8; 1024];
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(413);
        }
        let n = stream.read(&mut chunk).map_err(|_| 400_u16)?;
        if n == 0 {
            return if buf.is_empty() { Ok(None) } else { Err(400) };
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| 400_u16)?;
    let mut lines = head.split("\r\n");
    let start = lines.next().ok_or(400_u16)?;
    let mut parts = start.split_whitespace();
    let method = parts.next().ok_or(400_u16)?.to_uppercase();
    let target = parts.next().ok_or(400_u16)?;
    let path = target.split('?').next().unwrap_or(target).to_owned();
    let mut content_length = 0_usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| 400_u16)?;
            }
        }
    }
    if content_length > MAX_REQUEST_BYTES {
        return Err(413);
    }
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(|_| 400_u16)?;
        if n == 0 {
            return Err(400);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Some(Request { method, path, body }))
}

/// Byte offset of the `\r\n\r\n` header terminator, if present.
fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            path: path.to_owned(),
            body: Vec::new(),
        }
    }

    fn small_config() -> ServeConfig {
        ServeConfig {
            threads: 1,
            spec: CoupledGridSpec::demo(6, 6),
            options: CoupledOptions::default(),
            bundle_dir: None,
        }
    }

    /// Runs [`handle_connection`] on the server end of a loopback
    /// connection whose client sends `bytes` and then closes its write
    /// half; returns everything the client reads back.
    fn exchange(bytes: &[u8]) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(bytes).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        handle_connection(server_end, &small_config());
        let mut reply = Vec::new();
        client.read_to_end(&mut reply).unwrap();
        reply
    }

    #[test]
    fn a_bare_connect_is_closed_silently() {
        assert_eq!(read_request(&mut &b""[..]), Ok(None));
        assert!(exchange(b"").is_empty(), "no response to a bare connect");
    }

    #[test]
    fn a_partial_or_garbled_request_is_a_counted_400() {
        let cases: [&[u8]; 3] = [
            b"GET /hea",
            b"POST /signoff HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc",
            b"\xff\xfe\r\n\r\n",
        ];
        for bytes in cases {
            assert_eq!(read_request(&mut &bytes[..]), Err(400));
            let before = metrics::snapshot().counter("serve.errors");
            let reply = exchange(bytes);
            assert!(reply.starts_with(b"HTTP/1.1 400 "), "{reply:?}");
            if cfg!(feature = "telemetry") {
                // Other tests only ever add to the counter.
                assert!(metrics::snapshot().counter("serve.errors") > before);
            }
        }
    }

    /// [`Server::run`] on an ephemeral port, in a background thread.
    struct Running {
        addr: SocketAddr,
        shutdown: Arc<AtomicBool>,
        done: mpsc::Receiver<io::Result<()>>,
        thread: std::thread::JoinHandle<()>,
    }

    impl Running {
        fn start(threads: usize) -> Self {
            let server = Server::bind("127.0.0.1:0").unwrap();
            let addr = server.local_addr().unwrap();
            let shutdown = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&shutdown);
            let config = ServeConfig {
                threads,
                ..small_config()
            };
            let (tx, done) = mpsc::channel();
            let thread = std::thread::spawn(move || {
                let _ = tx.send(server.run(&config, &flag));
            });
            Self {
                addr,
                shutdown,
                done,
                thread,
            }
        }

        /// One `GET` round trip; returns the raw response.
        fn get(&self, path: &str) -> String {
            let mut stream = TcpStream::connect(self.addr).unwrap();
            write!(stream, "GET {path} HTTP/1.1\r\n\r\n").unwrap();
            let mut reply = String::new();
            stream.read_to_string(&mut reply).unwrap();
            reply
        }

        /// Sets the shutdown flag and returns how long `run` took to
        /// return after it, requiring it to return `Ok`.
        fn stop(self) -> Duration {
            let set = std::time::Instant::now();
            // SAFETY(ordering): SeqCst store, as a signal handler does.
            self.shutdown.store(true, Ordering::SeqCst);
            let result = self
                .done
                .recv_timeout(Duration::from_secs(10))
                .expect("run returns after shutdown");
            let waited = set.elapsed();
            result.unwrap();
            self.thread.join().unwrap();
            waited
        }
    }

    #[test]
    fn an_idle_server_returns_within_100_ms_of_shutdown() {
        let running = Running::start(1);
        // A round trip proves the loop is up and back in a blocking accept.
        assert!(running.get("/healthz").starts_with("HTTP/1.1 200 "));
        let waited = running.stop();
        assert!(waited < Duration::from_millis(100), "took {waited:?}");
    }

    #[test]
    fn a_request_in_flight_at_shutdown_gets_its_full_response() {
        let running = Running::start(2);
        let mut in_flight = TcpStream::connect(running.addr).unwrap();
        in_flight.write_all(b"POST /signoff HTTP/1.1\r\n").unwrap();
        // Connections are accepted in order: once a later one is
        // answered, the first is with a worker, waiting for its headers.
        assert!(running.get("/healthz").starts_with("HTTP/1.1 200 "));
        // SAFETY(ordering): SeqCst store, as a signal handler does.
        running.shutdown.store(true, Ordering::SeqCst);
        in_flight.write_all(b"Content-Length: 0\r\n\r\n").unwrap();
        let mut reply = String::new();
        in_flight.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 "), "{reply}");
        let body = reply.split_once("\r\n\r\n").unwrap().1;
        let json = hotwire_obs::json::parse(body).unwrap();
        assert_eq!(json.get("straps").and_then(Json::as_u64), Some(60));
        running.stop();
    }

    #[test]
    fn healthz_is_200() {
        let r = route(&get("/healthz"), &small_config());
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"ok\n");
    }

    #[test]
    fn metrics_render_exposition() {
        let r = route(&get("/metrics"), &small_config());
        assert_eq!(r.status, 200);
        assert!(r.content_type.contains("version=0.0.4"));
        let text = String::from_utf8(r.body).unwrap();
        assert!(text.contains("hotwire_telemetry_enabled"));
    }

    #[test]
    fn unknown_path_is_404_and_wrong_method_405() {
        assert_eq!(route(&get("/nope"), &small_config()).status, 404);
        let r = route(
            &Request {
                method: "DELETE".to_owned(),
                path: "/metrics".to_owned(),
                body: Vec::new(),
            },
            &small_config(),
        );
        assert_eq!(r.status, 405);
    }

    #[test]
    fn signoff_runs_the_engine() {
        let r = route(
            &Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: Vec::new(),
            },
            &small_config(),
        );
        assert_eq!(r.status, 200, "{:?}", String::from_utf8_lossy(&r.body));
        let json = hotwire_obs::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        assert!(json.get("iterations").and_then(Json::as_u64).unwrap() > 0);
        assert_eq!(json.get("straps").and_then(Json::as_u64).unwrap(), 60);
    }

    #[test]
    fn signoff_rejects_bad_overrides() {
        for body in [&b"not json"[..], br#"{"rows": 1}"#, br#"{"cols": 100000}"#] {
            let r = route(
                &Request {
                    method: "POST".to_owned(),
                    path: "/signoff".to_owned(),
                    body: body.to_vec(),
                },
                &small_config(),
            );
            assert_eq!(r.status, 400, "{:?}", String::from_utf8_lossy(body));
        }
    }

    #[test]
    fn header_terminator_is_found() {
        assert_eq!(find_header_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_header_end(b"partial\r\n"), None);
    }

    #[test]
    fn every_response_carries_a_unique_request_id() {
        let a = route(&get("/healthz"), &small_config());
        let b = route(&get("/nope"), &small_config());
        let id_a = a.request_id.expect("healthz response has a request id");
        let id_b = b.request_id.expect("404 response has a request id");
        assert!(id_a.starts_with("req-"), "{id_a}");
        assert_ne!(id_a, id_b, "request ids must be process-unique");
    }

    #[test]
    fn failed_signoff_quotes_the_request_id_in_the_body() {
        // An unbuildable template (no pads) makes the engine fail, which
        // must produce a 500 whose JSON body names the request id.
        let mut config = small_config();
        config.spec.pads.clear();
        let r = route(
            &Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: Vec::new(),
            },
            &config,
        );
        assert_eq!(r.status, 500);
        let json = hotwire_obs::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let body_id = json.get("request_id").and_then(Json::as_str).unwrap();
        assert_eq!(Some(body_id.to_owned()), r.request_id);
        // No --bundle-dir configured: the field is present but null.
        assert_eq!(json.get("bundle"), Some(&Json::Null));
    }

    #[test]
    fn failed_signoff_writes_a_bundle_when_a_dir_is_configured() {
        let dir = std::env::temp_dir().join(format!("hotwire-serve-bundle-{}", std::process::id()));
        let mut config = small_config();
        config.spec.pads.clear();
        config.bundle_dir = Some(dir.to_string_lossy().into_owned());
        let r = route(
            &Request {
                method: "POST".to_owned(),
                path: "/signoff".to_owned(),
                body: Vec::new(),
            },
            &config,
        );
        assert_eq!(r.status, 500);
        let json = hotwire_obs::json::parse(std::str::from_utf8(&r.body).unwrap()).unwrap();
        let bundle_path = json
            .get("bundle")
            .and_then(Json::as_str)
            .expect("500 body quotes the bundle path")
            .to_owned();
        let text = std::fs::read_to_string(&bundle_path).expect("bundle file exists");
        let bundle = hotwire_obs::json::parse(&text).unwrap();
        assert_eq!(
            bundle.get("schema").and_then(Json::as_str),
            Some(hotwire_obs::recorder::BUNDLE_SCHEMA)
        );
        assert_eq!(
            bundle.get("reason").and_then(Json::as_str),
            Some("request-error")
        );
        let _ = std::fs::remove_file(&bundle_path);
        let _ = std::fs::remove_dir(&dir);
    }
}
