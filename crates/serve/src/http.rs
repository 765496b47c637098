//! Minimal std-only HTTP/1.1 batch prediction server, hardened against
//! slow, hostile, and overload traffic.
//!
//! Three routes, all returning JSON:
//!
//! | Route | Body | Response |
//! |-------|------|----------|
//! | `GET /health` | — | `{"status":"ok"\|"degraded","model_version":v,"n_features":d,...}` |
//! | `POST /predict` | CSV rows (one sample per line) | `{"model_version":v,"predictions":[...]}` |
//! | `POST /swap` | path to a model artifact | `{"model_version":v}` |
//!
//! Every worker thread holds a cached [`SwapReader`] over the registry, so
//! the per-request model lookup is a single atomic load between swaps.  A
//! `/swap` loads and checksum-verifies the new artifact on the handler's own
//! thread and then replaces the served model with a pointer swap —
//! predictions in flight on other workers finish on the version they
//! started with, and every response carries the version that actually
//! produced it.  A failed `/swap` leaves the last good model serving and
//! flips `/health` to `"degraded"` until a later swap succeeds.
//!
//! ## Latency
//!
//! Accepted sockets set `TCP_NODELAY`, and every response — status line,
//! headers and body, `503` sheds included — leaves in one write.  A
//! response written in pieces lets Nagle's algorithm hold the later pieces
//! until the client's delayed ACK, a fixed ~40 ms stall on every keep-alive
//! answer.  A `/predict` body is parsed in one pass over its bytes, straight
//! into the batch matrix; plain decimals take an exact fast path, and any
//! other field falls back to `str::parse`, with the same values and errors.
//!
//! ## Hardening
//!
//! The server assumes clients are slow, malicious, or both
//! ([`ServeConfig`] holds the knobs):
//!
//! - **Read deadlines.** The request line must arrive within
//!   [`ServeConfig::idle_timeout`]; the rest of the request (headers +
//!   body) within [`ServeConfig::request_read_timeout`].  A slow-loris
//!   client trickling header bytes gets `408 Request Timeout` and a closed
//!   socket, never a parked worker.
//! - **Bounded queue with shedding.** Accepted connections go through a
//!   bounded queue ([`ServeConfig::queue_capacity`]); when it is full the
//!   accept thread answers `503 {"status":"overloaded"}` immediately
//!   instead of queueing unbounded work.
//! - **Typed protocol errors.** Oversized header lines get `431`, a
//!   malformed request line or `Content-Length` gets `400`, a declared body
//!   larger than [`ServeConfig::max_body_bytes`] gets `413` — the
//!   connection is answered and closed, never left hanging and never a
//!   panic.
//! - **Panic containment.** Each connection runs under
//!   [`std::panic::catch_unwind`]; a panicking handler loses only its own
//!   connection.  The worker thread survives, so the pool never shrinks
//!   and no lock poisoning cascades ([`PredictServer::worker_panics`]
//!   counts occurrences).
//! - **Graceful shutdown.** [`PredictServer::shutdown`] stops the accept
//!   loop, lets in-flight requests finish, closes idle keep-alive sockets,
//!   and returns within [`ServeConfig::drain_deadline`] even if a worker is
//!   wedged (reported via [`ShutdownReport`]).

use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use m3_core::ExecContext;
use m3_linalg::DenseMatrix;
use m3_ml::api::BatchPredict;

use crate::registry::ModelRegistry;

/// Default cap on request body size (64 MiB) so a hostile Content-Length
/// cannot make a worker allocate unbounded memory.
const DEFAULT_MAX_BODY_BYTES: usize = 64 << 20;

/// Cap on a single header (or request) line; longer lines get `431`.
const MAX_HEADER_LINE_BYTES: usize = 8 << 10;

/// Socket read-timeout granularity: how often a blocked read wakes up to
/// check the stop flag and the request deadline.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Write timeout for the accept thread's `503` shed response, kept short so
/// an unreadable client cannot stall the accept loop.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(500);

/// Tuning knobs for [`PredictServer`]: pool size, queue bound, timeouts.
///
/// The defaults suit tests and small deployments; every field exists
/// because some client misbehaviour (slow-loris, overload, wedged reader)
/// needs a bound.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connection-handler threads (minimum 1).
    pub n_workers: usize,
    /// Accepted connections waiting for a worker; beyond this the accept
    /// thread sheds with `503 {"status":"overloaded"}`.
    pub queue_capacity: usize,
    /// Deadline for receiving a complete request (headers + body) once the
    /// request line has arrived; exceeded → `408` and close.
    pub request_read_timeout: Duration,
    /// How long a keep-alive connection may sit idle (or dribble its
    /// request line) before the server closes it.
    pub idle_timeout: Duration,
    /// Socket write timeout for responses; a client that stops reading
    /// loses its connection instead of parking a worker.
    pub write_timeout: Duration,
    /// How long [`PredictServer::shutdown`] waits for workers to drain
    /// in-flight requests before abandoning them.
    pub drain_deadline: Duration,
    /// Maximum accepted request body; larger declared bodies get `413`.
    pub max_body_bytes: usize,
    /// Enable `POST /__fault/panic`, which panics inside the handler — for
    /// exercising panic containment in tests.  Never enable in production.
    pub fault_route: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            n_workers: 4,
            queue_capacity: 128,
            request_read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            drain_deadline: Duration::from_secs(5),
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            fault_route: false,
        }
    }
}

/// What [`PredictServer::shutdown`] accomplished before returning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Every worker exited within the drain deadline.
    pub drained: bool,
    /// Workers still running when the deadline expired (left detached).
    pub abandoned_workers: usize,
}

/// A running prediction server.
///
/// Dropping the handle without calling [`PredictServer::shutdown`] leaves
/// the listener thread running for the life of the process.
pub struct PredictServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    panics: Arc<AtomicU64>,
    drain_deadline: Duration,
}

impl PredictServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `registry` with
    /// `n_workers` connection-handler threads and default hardening knobs
    /// (see [`ServeConfig`]).  Predictions run through `ctx`, so thread
    /// count and chunking of the batch kernels follow the caller's
    /// execution policy.
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(
        addr: &str,
        registry: Arc<ModelRegistry>,
        ctx: Arc<ExecContext>,
        n_workers: usize,
    ) -> io::Result<Self> {
        Self::bind_with(
            addr,
            registry,
            ctx,
            ServeConfig {
                n_workers,
                ..ServeConfig::default()
            },
        )
    }

    /// Like [`PredictServer::bind`], with explicit [`ServeConfig`] knobs.
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind_with(
        addr: &str,
        registry: Arc<ModelRegistry>,
        ctx: Arc<ExecContext>,
        config: ServeConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let panics = Arc::new(AtomicU64::new(0));
        let config = Arc::new(config);

        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(config.queue_capacity.max(1));
        // `sync_channel` receivers cannot be shared, so connections are
        // fanned out by wrapping the receiver in a mutex; workers poll with
        // a timeout so they also notice the stop flag.
        let conn_rx = Arc::new(std::sync::Mutex::new(conn_rx));

        let workers = (0..config.n_workers.max(1))
            .map(|_| {
                let conn_rx = Arc::clone(&conn_rx);
                let registry = Arc::clone(&registry);
                let ctx = Arc::clone(&ctx);
                let config = Arc::clone(&config);
                let stop = Arc::clone(&stop);
                let panics = Arc::clone(&panics);
                std::thread::spawn(move || {
                    // The cached reader makes the steady-state model lookup
                    // one atomic load per request.
                    let mut reader = registry.reader();
                    loop {
                        // Recover the guard if a sibling worker panicked
                        // while holding it — the receiver has no invariant
                        // a panic could tear, and cascading the poison
                        // would shrink the pool to zero.
                        let received = conn_rx
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .recv_timeout(POLL_TICK);
                        let stream = match received {
                            Ok(stream) => stream,
                            Err(mpsc::RecvTimeoutError::Timeout) => {
                                if stop.load(Ordering::Acquire) {
                                    return;
                                }
                                continue;
                            }
                            Err(mpsc::RecvTimeoutError::Disconnected) => return,
                        };
                        // A panicking handler loses only its own
                        // connection; the worker thread survives, so the
                        // pool never shrinks.
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            // A broken connection only loses that connection.
                            let _ = serve_connection(
                                stream,
                                &registry,
                                &mut reader,
                                &ctx,
                                &config,
                                &stop,
                            );
                        }));
                        if outcome.is_err() {
                            panics.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();

        let accept_thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    match conn_tx.try_send(stream) {
                        Ok(()) => {}
                        Err(mpsc::TrySendError::Full(stream)) => shed(stream),
                        Err(mpsc::TrySendError::Disconnected(_)) => return,
                    }
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
            panics,
            drain_deadline: config.drain_deadline,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections lost to a panicking handler since the server started.
    /// Stays 0 unless a handler bug (or the test-only fault route) fires.
    pub fn worker_panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Stop accepting connections, drain in-flight requests, close idle
    /// keep-alive sockets, and join the worker threads — waiting at most
    /// the configured drain deadline.  Workers still busy when the deadline
    /// expires are left detached (their requests may still complete) and
    /// counted in the returned [`ShutdownReport`].
    pub fn shutdown(mut self) -> ShutdownReport {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // The accept thread owned the sender; workers drain whatever is
        // queued, then see a disconnected queue (or the stop flag) and
        // return.  Keep-alive connections are closed after their in-flight
        // request because the read loops check the stop flag each tick.
        let deadline = Instant::now() + self.drain_deadline;
        let drained = loop {
            if self.workers.iter().all(|w| w.is_finished()) {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        let abandoned_workers = self.workers.iter().filter(|w| !w.is_finished()).count();
        for handle in self.workers.drain(..) {
            if handle.is_finished() {
                let _ = handle.join();
            }
        }
        ShutdownReport {
            drained,
            abandoned_workers,
        }
    }
}

/// Queue-full path: answer `503` and drop the connection without blocking
/// the accept loop for longer than [`SHED_WRITE_TIMEOUT`].
fn shed(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
    let _ = write_response(
        &mut stream,
        "503 Service Unavailable",
        "{\"status\":\"overloaded\"}",
        false,
    );
}

/// One parsed HTTP request.
struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
    keep_alive: bool,
}

/// What reading one request off a connection produced.
enum RequestOutcome {
    /// A complete, well-formed request.
    Request(Request),
    /// Clean close (EOF, idle timeout with no bytes, or server stopping):
    /// close the connection without a response.
    Closed,
    /// Protocol violation or deadline hit: answer `status` and close.
    Reject {
        status: &'static str,
        message: String,
    },
}

/// How one deadline-bounded line read ended.
enum LineRead {
    /// A complete `\n`-terminated line is in the buffer.
    Line,
    /// Peer closed (possibly mid-line — caller checks the buffer).
    Eof,
    /// Deadline expired before the newline arrived.
    TimedOut,
    /// The server is shutting down.
    Stopped,
    /// The line exceeded [`MAX_HEADER_LINE_BYTES`].
    TooLong,
}

/// Read one `\n`-terminated line, waking every [`POLL_TICK`] to check the
/// stop flag and `deadline`.  Partial bytes accumulate in `line` across
/// timeouts (the socket has a read timeout of [`POLL_TICK`]).
fn read_line_deadline(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    deadline: Instant,
    stop: &AtomicBool,
) -> io::Result<LineRead> {
    loop {
        match reader.read_line(line) {
            // read_line returns Ok only at a newline or EOF.
            Ok(0) => return Ok(LineRead::Eof),
            Ok(_) if line.ends_with('\n') => {
                return Ok(if line.len() > MAX_HEADER_LINE_BYTES {
                    LineRead::TooLong
                } else {
                    LineRead::Line
                })
            }
            Ok(_) => return Ok(LineRead::Eof),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(LineRead::Stopped);
                }
                if line.len() > MAX_HEADER_LINE_BYTES {
                    return Ok(LineRead::TooLong);
                }
                if Instant::now() >= deadline {
                    return Ok(LineRead::TimedOut);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Read one request off the connection, enforcing the config's deadlines
/// and size caps.  The request line gets the idle deadline (covering
/// keep-alive idleness); headers and body get `request_read_timeout` from
/// the moment the request line completes.
fn read_request(
    reader: &mut BufReader<TcpStream>,
    config: &ServeConfig,
    stop: &AtomicBool,
) -> io::Result<RequestOutcome> {
    let reject = |status, message: &str| {
        Ok(RequestOutcome::Reject {
            status,
            message: message.to_string(),
        })
    };

    let mut line = String::new();
    let idle_deadline = Instant::now() + config.idle_timeout;
    match read_line_deadline(reader, &mut line, idle_deadline, stop) {
        Ok(LineRead::Line) => {}
        Ok(LineRead::Eof) | Ok(LineRead::Stopped) => return Ok(RequestOutcome::Closed),
        Ok(LineRead::TimedOut) => {
            // Idle keep-alive clients are closed silently; a client caught
            // mid-request-line is told why.
            return if line.is_empty() {
                Ok(RequestOutcome::Closed)
            } else {
                reject("408 Request Timeout", "timed out reading request line")
            };
        }
        Ok(LineRead::TooLong) => {
            return reject(
                "431 Request Header Fields Too Large",
                "request line too long",
            )
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            return reject("400 Bad Request", "request line is not valid UTF-8")
        }
        Err(e) => return Err(e),
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return reject("400 Bad Request", "bad request line");
    }

    // Request line arrived: the rest of the request must land within the
    // read deadline, however slowly the client dribbles it.
    let deadline = Instant::now() + config.request_read_timeout;
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    loop {
        let mut header = String::new();
        match read_line_deadline(reader, &mut header, deadline, stop) {
            Ok(LineRead::Line) => {}
            Ok(LineRead::Eof) | Ok(LineRead::Stopped) => return Ok(RequestOutcome::Closed),
            Ok(LineRead::TimedOut) => {
                return reject("408 Request Timeout", "timed out reading headers")
            }
            Ok(LineRead::TooLong) => {
                return reject(
                    "431 Request Header Fields Too Large",
                    "header line too long",
                )
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                return reject("400 Bad Request", "header is not valid UTF-8")
            }
            Err(e) => return Err(e),
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            match name.to_ascii_lowercase().as_str() {
                "content-length" => match value.parse::<usize>() {
                    Ok(n) => content_length = n,
                    Err(_) => {
                        return reject(
                            "400 Bad Request",
                            &format!("malformed content-length {value:?}"),
                        )
                    }
                },
                "connection" => keep_alive = !value.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
    }
    if content_length > config.max_body_bytes {
        return reject(
            "413 Content Too Large",
            &format!(
                "declared body of {content_length} bytes exceeds the {} byte limit",
                config.max_body_bytes
            ),
        );
    }

    let mut body = vec![0u8; content_length];
    let mut filled = 0usize;
    while filled < content_length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => return reject("400 Bad Request", "request body truncated"),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(RequestOutcome::Closed);
                }
                if Instant::now() >= deadline {
                    return reject("408 Request Timeout", "timed out reading request body");
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(RequestOutcome::Request(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

/// Send the status line, headers and body in one write.  A response split
/// over several small writes lets Nagle's algorithm hold the later pieces
/// until the client's delayed ACK, which stalls every keep-alive answer by
/// about 40 ms on Linux.
fn write_response(
    stream: &mut TcpStream,
    status: &str,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    let mut response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        body.len()
    );
    response.push_str(body);
    stream.write_all(response.as_bytes())
}

/// Serve requests on one connection until EOF, `Connection: close`, a
/// protocol error, or server shutdown.
fn serve_connection(
    stream: TcpStream,
    registry: &ModelRegistry,
    reader: &mut crate::swap::SwapReader<'_, crate::registry::ServedModel>,
    ctx: &ExecContext,
    config: &ServeConfig,
    stop: &AtomicBool,
) -> io::Result<()> {
    // Short read timeout = deadline polling granularity; write timeout so a
    // client that stops reading cannot park this worker.
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(config.write_timeout))?;
    stream.set_nodelay(true)?;
    let mut buf = BufReader::new(stream.try_clone()?);
    let mut stream = stream;
    loop {
        match read_request(&mut buf, config, stop)? {
            RequestOutcome::Request(request) => {
                let (status, body) = route(&request, registry, reader, ctx, config);
                write_response(&mut stream, status, &body, request.keep_alive)?;
                // On shutdown, finish the in-flight request but do not wait
                // for another on a keep-alive socket.
                if !request.keep_alive || stop.load(Ordering::Acquire) {
                    return Ok(());
                }
            }
            RequestOutcome::Closed => return Ok(()),
            RequestOutcome::Reject { status, message } => {
                let _ = write_response(&mut stream, status, &error_json(&message), false);
                return Ok(());
            }
        }
    }
}

fn route(
    request: &Request,
    registry: &ModelRegistry,
    reader: &mut crate::swap::SwapReader<'_, crate::registry::ServedModel>,
    ctx: &ExecContext,
    config: &ServeConfig,
) -> (&'static str, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            let health = registry.health();
            let (version, served) = reader.get();
            let n_features = served.model.n_features();
            match health.last_swap_error {
                None => (
                    "200 OK",
                    format!(
                        "{{\"status\":\"ok\",\"model_version\":{version},\"n_features\":{n_features}}}"
                    ),
                ),
                Some(err) => (
                    "200 OK",
                    format!(
                        "{{\"status\":\"degraded\",\"model_version\":{version},\"n_features\":{n_features},\"last_swap_error\":{}}}",
                        json_string(&err)
                    ),
                ),
            }
        }
        ("POST", "/predict") => match predict(&request.body, reader, ctx) {
            Ok(body) => ("200 OK", body),
            Err(message) => ("400 Bad Request", error_json(&message)),
        },
        ("POST", "/swap") => {
            let path = String::from_utf8_lossy(&request.body);
            match registry.swap_from(path.trim()) {
                Ok(version) => ("200 OK", format!("{{\"model_version\":{version}}}")),
                Err(e) => ("400 Bad Request", error_json(&e.to_string())),
            }
        }
        ("POST", "/__fault/panic") if config.fault_route => {
            panic!("injected panic via /__fault/panic")
        }
        _ => ("404 Not Found", error_json("no such route")),
    }
}

fn predict(
    body: &[u8],
    reader: &mut crate::swap::SwapReader<'_, crate::registry::ServedModel>,
    ctx: &ExecContext,
) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let batch = parse_csv_batch(text)?;

    // Pin (version, model) once; the whole batch is answered by this
    // version even if a swap lands mid-request.
    let (version, served) = reader.get();
    if batch.n_cols() != served.model.n_features() {
        return Err(format!(
            "expected {} features per row, got {}",
            served.model.n_features(),
            batch.n_cols()
        ));
    }
    let predictions = served.model.predict_batch_ctx(&batch, ctx);

    // Writing into a `String` cannot fail, so the `fmt::Result`s are moot.
    let mut out = String::with_capacity(48 + predictions.len() * 20);
    let _ = write!(out, "{{\"model_version\":{version},\"predictions\":[");
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64_json(&mut out, *p);
    }
    out.push_str("]}");
    Ok(out)
}

/// Exact powers of ten: every `10^k` with `k <= 22` is an `f64` without
/// rounding.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Largest mantissa that converts to `f64` exactly.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// Parse one sample per line, comma-separated features, in one pass over
/// the bytes, writing each value straight into the matrix's buffer.
///
/// Lines go through [`parse_fast_line`] first.  A line it cannot take whole
/// is parsed again from its start by [`parse_slow_line`], which splits and
/// parses with `str` methods.  Both accept the same lines and yield the same
/// bits where they overlap, so the fast path only changes speed: bodies,
/// values and `400` messages are those of the plain `lines`/`split`/`parse`
/// reading.
fn parse_csv_batch(text: &str) -> Result<DenseMatrix, String> {
    let bytes = text.as_bytes();
    let mut data = Vec::new();
    let mut n_cols = 0usize;
    let mut n_rows = 0usize;
    let mut pos = 0usize;
    let mut lineno = 0usize;
    while pos < bytes.len() {
        lineno += 1;
        let start = data.len();
        pos = match parse_fast_line(bytes, pos, &mut data) {
            Some(next) => next,
            None => {
                data.truncate(start);
                let end = bytes[pos..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| pos + i);
                // `pos` and `end` sit next to `\n` bytes or at the ends of
                // the text, so both are char boundaries.
                parse_slow_line(&text[pos..end], lineno, &mut data)?;
                end + 1
            }
        };
        let width = data.len() - start;
        if width == 0 {
            continue; // blank or whitespace-only line
        }
        if n_rows == 0 {
            n_cols = width;
        } else if width != n_cols {
            return Err(format!(
                "line {lineno}: expected {n_cols} fields, got {width}"
            ));
        }
        n_rows += 1;
    }
    if n_rows == 0 {
        return Err("empty batch".to_string());
    }
    DenseMatrix::from_vec(data, n_rows, n_cols).map_err(|e| e.to_string())
}

/// ASCII bytes that `str::trim` strips.
fn is_padding(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | 0x0b | 0x0c)
}

/// Parse the line starting at `pos` when every field is optional ASCII
/// padding, an optional `-`, digits, an optional `.` and digits, then
/// optional padding, with a mantissa of at most 2^53 and at most 22
/// fraction digits.  Then `mantissa / 10^frac` divides two exact `f64`s,
/// so the one rounding of the quotient gives the correctly rounded value
/// that `str::parse` returns (Clinger's fast path).
///
/// Returns the index just past the line's `\n` (or the end of the text),
/// or `None` at the first field outside that grammar, leaving a partial
/// row in `data` for the caller to drop.
fn parse_fast_line(bytes: &[u8], mut pos: usize, data: &mut Vec<f64>) -> Option<usize> {
    let digits_from = |mut pos: usize, mantissa: &mut u64| {
        let from = pos;
        while let Some(d) = bytes.get(pos).filter(|b| b.is_ascii_digit()) {
            *mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
            pos += 1;
        }
        (pos, pos - from)
    };
    loop {
        while bytes.get(pos).copied().is_some_and(is_padding) {
            pos += 1;
        }
        let negative = bytes.get(pos) == Some(&b'-');
        pos += usize::from(negative);
        let mut mantissa = 0u64;
        let (after_int, int_digits) = digits_from(pos, &mut mantissa);
        pos = after_int;
        let mut frac_digits = 0;
        if bytes.get(pos) == Some(&b'.') {
            (pos, frac_digits) = digits_from(pos + 1, &mut mantissa);
        }
        // Past 19 digits the u64 may have wrapped; the bound rejects it.
        let digits = int_digits + frac_digits;
        if digits == 0 || digits > 19 || frac_digits > 22 || mantissa > MAX_EXACT_MANTISSA {
            return None;
        }
        let magnitude = mantissa as f64 / POW10[frac_digits];
        data.push(if negative { -magnitude } else { magnitude });
        while bytes.get(pos).copied().is_some_and(is_padding) {
            pos += 1;
        }
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'\n') => return Some(pos + 1),
            None => return Some(pos),
            Some(_) => return None,
        }
    }
}

/// Parse one line (without its `\n`) field by field with `str::parse`,
/// which handles exponents, `+`, long mantissas and Unicode padding.  A
/// blank line pushes nothing.
fn parse_slow_line(line: &str, lineno: usize, data: &mut Vec<f64>) -> Result<(), String> {
    let line = line.trim();
    if line.is_empty() {
        return Ok(());
    }
    for field in line.split(',') {
        let value: f64 = field
            .trim()
            .parse()
            .map_err(|_| format!("line {lineno}: bad number {field:?}"))?;
        data.push(value);
    }
    Ok(())
}

/// Append `value` as a JSON number; JSON has no NaN/Infinity literals, so
/// those become `null`.
fn push_f64_json(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// Escape `message` as a JSON string literal (with quotes).
fn json_string(message: &str) -> String {
    let escaped: String = message
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn error_json(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// Blocking one-shot HTTP client for tests, examples and benchmarks: sends
/// `method path` with `body`, returns `(status_code, response_body)`.  The
/// request leaves in one write with `TCP_NODELAY`, as the server's
/// responses do.
///
/// # Errors
/// Fails on connection or protocol errors.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut request = format!(
        "{method} {path} HTTP/1.1\r\nHost: m3\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    request.push_str(body);
    stream.write_all(request.as_bytes())?;
    read_response(BufReader::new(stream))
}

/// Parse one HTTP response off `reader`: `(status_code, body)`.
///
/// # Errors
/// Fails on protocol errors (bad status line, non-UTF-8 body).
pub fn read_response<R: BufRead>(mut reader: R) -> io::Result<(u16, String)> {
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap_or(0);
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `lines`/`split`/`parse` reading that [`parse_csv_batch`]
    /// replaced: the reference it must agree with on every body.
    fn parse_csv_batch_reference(text: &str) -> Result<DenseMatrix, String> {
        let mut data = Vec::new();
        let mut n_cols = 0usize;
        let mut n_rows = 0usize;
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let start = data.len();
            for field in line.split(',') {
                let value: f64 = field
                    .trim()
                    .parse()
                    .map_err(|_| format!("line {}: bad number {field:?}", lineno + 1))?;
                data.push(value);
            }
            let width = data.len() - start;
            if n_rows == 0 {
                n_cols = width;
            } else if width != n_cols {
                return Err(format!(
                    "line {}: expected {n_cols} fields, got {width}",
                    lineno + 1
                ));
            }
            n_rows += 1;
        }
        if n_rows == 0 {
            return Err("empty batch".to_string());
        }
        DenseMatrix::from_vec(data, n_rows, n_cols).map_err(|e| e.to_string())
    }

    /// Same `Ok` shape and value bits, or the same `Err` message.
    fn assert_parses_like_reference(text: &str) {
        match (parse_csv_batch(text), parse_csv_batch_reference(text)) {
            (Ok(got), Ok(want)) => {
                assert_eq!(got.shape(), want.shape(), "shape of {text:?}");
                let bits = |m: &DenseMatrix| -> Vec<u64> {
                    m.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&got), bits(&want), "values of {text:?}");
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "error for {text:?}"),
            (got, want) => panic!(
                "{text:?}: parser gave {:?}, reference gave {:?}",
                got.map(|m| m.into_vec()),
                want.map(|m| m.into_vec())
            ),
        }
    }

    #[test]
    fn csv_batch_parses_rows_and_rejects_ragged_input() {
        let m = parse_csv_batch("1,2,3\n4,5,6\n").unwrap();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(
            parse_csv_batch("1,2\n3\n").unwrap_err(),
            "line 2: expected 2 fields, got 1"
        );
        assert_eq!(parse_csv_batch("").unwrap_err(), "empty batch");
        assert_eq!(
            parse_csv_batch("1,abc\n").unwrap_err(),
            "line 1: bad number \"abc\""
        );
    }

    #[test]
    fn csv_parser_matches_the_reference_on_edge_cases() {
        let cases = [
            // Signs, zeros and bare points.
            "-0.0",
            "0",
            "-0",
            "0007,00.50,-000",
            ".5",
            "5.",
            "-.5",
            "-5.",
            ".",
            "-",
            "-.",
            "+1",
            "+.5",
            "--1",
            "1e3",
            "1E-3",
            "-2.5e+10",
            "1e",
            "inf",
            "-Infinity",
            "NaN",
            "1.2.3",
            "1-2",
            "0x10",
            "1_0",
            // Mantissas around 2^53 and past 15 digits.
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993.5",
            "1234567890123456",
            "12345678901234567",
            "1234567890123456789",
            "12345678901234567890",
            "1234567890123456789012345",
            "0.1234567890123456789012345",
            "12345.67890123456789012",
            // Long fractions around the 22-digit exact power-of-ten limit.
            "0.1000000000000000000000",
            "0.0000000000000000000001",
            "0.00000000000000000000001",
            "0.00000000000000000000000000001",
            "3.0000000000000000000000000000001",
            // Line endings, blank lines, trailing line without newline.
            "1,2\r\n3,4\r\n",
            "1,2\r\n3,4",
            "1,2\n\n3,4\n",
            "\n\n1\n",
            "1\n  \t \n2",
            "\r\n",
            "\n",
            "  ",
            "1,2\r",
            "1\r\r\n2",
            "1\n2\n\n",
            // Padding: ASCII, vertical tab, form feed, Unicode no-break space.
            " 1 , 2 ",
            "\t1,\t2\t",
            "1\u{0b},\u{0c}2",
            "\u{a0}1,2",
            "1,2\u{a0}",
            "1,\u{a0}2\u{a0},3",
            "\u{2003}7\u{3000}",
            "1 2",
            "1,,2",
            "1,2,",
            ",1",
            // Ragged rows, empty and garbage bodies.
            "1,2\n3\n",
            "1\n2,3\n",
            "1,2\n3,abc,4\n",
            "1,2\n3,4,5",
            "",
            "abc",
            "1,2\nabc\n",
            "é,1",
            "1,é",
            "1\n\u{a0}\n2",
        ];
        for case in cases {
            assert_parses_like_reference(case);
        }
    }

    #[test]
    fn csv_parser_matches_the_reference_on_random_bodies() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        const PADDING: [&str; 8] = ["", "", "", " ", "\t", "\r", "\u{a0}", "\u{0b}"];
        const GARBAGE: [&str; 8] = ["", ".", "-", "abc", "1e", "+", "1.2.3", "NaN"];
        for _ in 0..4000 {
            let rows = 1 + next(6);
            let width = 1 + next(5);
            let mut body = String::new();
            for _ in 0..rows {
                if next(10) == 0 {
                    body.push_str(PADDING[next(8) as usize]);
                } else {
                    let ragged = next(20) == 0;
                    let fields = if ragged { 1 + next(6) } else { width };
                    for f in 0..fields {
                        if f > 0 {
                            body.push(',');
                        }
                        body.push_str(PADDING[next(8) as usize]);
                        if next(50) == 0 {
                            body.push_str(GARBAGE[next(8) as usize]);
                        } else {
                            match next(10) {
                                0 => body.push('-'),
                                1 if next(4) == 0 => body.push('+'),
                                _ => {}
                            }
                            for _ in 0..next(20) {
                                body.push(char::from(b'0' + next(10) as u8));
                            }
                            if next(4) != 0 {
                                body.push('.');
                                for _ in 0..next(26) {
                                    body.push(char::from(b'0' + next(10) as u8));
                                }
                            }
                            if next(20) == 0 {
                                let _ = write!(body, "e{}", next(40) as i64 - 20);
                            }
                        }
                        body.push_str(PADDING[next(8) as usize]);
                    }
                }
                body.push_str(if next(3) == 0 { "\r\n" } else { "\n" });
            }
            if next(3) == 0 {
                body.pop();
            }
            assert_parses_like_reference(&body);
        }
    }

    #[test]
    fn csv_parser_rounds_plain_decimals_exactly() {
        // Fast-path values only, including mantissas right at 2^53, against
        // `str::parse` bit for bit.
        let mut state = 7u64;
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mantissa = (state >> 11) % (MAX_EXACT_MANTISSA + 1);
            let frac = (state % 23) as usize;
            let digits = format!("{mantissa:0>width$}", width = frac + 1);
            let (int, fraction) = digits.split_at(digits.len() - frac);
            let text = format!("-{int}.{fraction}");
            let parsed = parse_csv_batch(&text).unwrap();
            let want: f64 = text.parse().unwrap();
            assert_eq!(parsed.as_slice()[0].to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn json_floats_encode_non_finite_as_null() {
        let mut out = String::new();
        for value in [1.5, f64::NAN, f64::INFINITY, -0.0, 0.1 + 0.2] {
            push_f64_json(&mut out, value);
            out.push(' ');
        }
        assert_eq!(out, "1.5 null null -0 0.30000000000000004 ");
    }

    #[test]
    fn error_json_escapes_quotes() {
        assert_eq!(error_json("a \"b\""), "{\"error\":\"a \\\"b\\\"\"}");
    }

    #[test]
    fn default_config_is_sane() {
        let config = ServeConfig::default();
        assert!(config.n_workers >= 1);
        assert!(config.queue_capacity >= 1);
        assert!(!config.fault_route);
        assert_eq!(config.max_body_bytes, 64 << 20);
    }
}
