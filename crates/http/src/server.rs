//! A blocking HTTP/1.1 server over `std::net` with a worker thread pool.
//!
//! Each accepted connection is handed to a pool worker, which serves
//! keep-alive requests on it until the peer closes, an error occurs, or
//! `Connection: close` is exchanged. The design follows the synchronous
//! from-scratch style (cf. smoltcp) rather than pulling in an async
//! runtime: loopback-scale load with a handful of crawler connections
//! needs nothing more.
//!
//! ## Overload protection
//!
//! The serving edge defends itself rather than collapsing:
//!
//! - **Load shedding** — admission is bounded by the accept queue and
//!   [`ServerConfig::max_connections`]. A connection that cannot be
//!   admitted is answered with a fast `503 Service Unavailable` +
//!   `Retry-After` and closed; never silently dropped.
//! - **Edge rate limiting** — an optional per-client token bucket
//!   ([`ServerConfig::rate_limit`]) answers over-limit requests with
//!   `429 Too Many Requests` + `Retry-After` before the handler runs.
//! - **Slowloris defense** — reads poll on a short tick so a worker is
//!   never blocked: a client that stalls mid-request for
//!   [`ServerConfig::read_timeout`], or trickles bytes past
//!   [`ServerConfig::request_deadline`], gets `408 Request Timeout`;
//!   idle keep-alive connections are reaped after
//!   [`ServerConfig::idle_timeout`].
//! - **Graceful drain** — shutdown completes in-flight requests under
//!   [`ServerConfig::drain_deadline`] while shedding new connections
//!   with an explicit 503.
//!
//! ## Telemetry
//!
//! When [`ServerConfig::metrics`] carries a registry, the transport
//! layer accounts for itself under `http_*` metrics: request and
//! status-class counters, request/response byte counters, a request
//! latency histogram, gauges for in-flight connections and the accept
//! queue, and counters for accept errors, decode errors, shed and
//! rate-limited connections, slow-client closes, idle reaps, drained
//! connections and shutdown-time rejects. All per-request recording is
//! pre-resolved atomic handles — no locks on the hot path.
//! Route-pattern-level accounting (e.g. `/profile/:uid`) lives a layer
//! up, in `hsp-platform`, which sees the routing decision; the server
//! only knows raw paths and deliberately does not use them as label
//! values (unbounded cardinality).

use crate::error::HttpError;
use crate::message::Response;
use crate::resilient::H_TRACE_ID;
use crate::router::Handler;
use crate::types::{Method, Status};
use crate::wire::{decode_request, encode_response, Decoded};
use bytes::BytesMut;
use crossbeam_channel::{bounded, Sender, TrySendError};
use hsp_obs::trace::{SpanRecord, SLOT_EDGE};
use hsp_obs::{Counter, FlightRecorder, Gauge, Histogram, Registry, TraceCtx};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-client token-bucket rate limit, enforced at the edge before the
/// handler runs. This is the platform-side countermeasure the paper's
/// §8 discussion calls for: a crawler exceeding it sees `429` +
/// `Retry-After` instead of pages.
#[derive(Clone, Copy, Debug)]
pub struct RateLimit {
    /// Bucket capacity: requests a client may burst before refill matters.
    pub burst: u32,
    /// Sustained refill rate, tokens (requests) per second.
    pub per_sec: f64,
}

/// Server configuration.
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// No-progress deadline while a request is partially received: a
    /// client that sends part of a request and then stalls this long is
    /// answered `408` and closed.
    pub read_timeout: Duration,
    /// Total deadline for receiving one complete request, first byte to
    /// full decode. Defeats slowloris clients that trickle a byte just
    /// often enough to dodge `read_timeout`.
    pub request_deadline: Duration,
    /// Idle keep-alive connections (no partial request buffered) are
    /// quietly reaped after this long.
    pub idle_timeout: Duration,
    /// Per-write socket timeout for responses and shed replies.
    pub write_timeout: Duration,
    /// Capacity of the accepted-connection queue between the accept
    /// loop and the worker pool. A connection arriving while the queue
    /// is full is shed with `503` + `Retry-After` (never blocked on,
    /// never silently dropped).
    pub queue_depth: usize,
    /// Hard cap on concurrently admitted connections (queued + being
    /// served); beyond it new connections are shed with `503`.
    pub max_connections: usize,
    /// Deadline for graceful drain: shutdown lets in-flight requests
    /// finish for at most this long while shedding new connections.
    pub drain_deadline: Duration,
    /// Optional per-client-IP token-bucket rate limit.
    pub rate_limit: Option<RateLimit>,
    /// Prefix for server thread names (`{prefix}-accept`,
    /// `{prefix}-worker3`), visible in debuggers and `/proc`.
    pub thread_name_prefix: String,
    /// Metrics registry; `None` disables transport telemetry.
    pub metrics: Option<Arc<Registry>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 8,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_millis(250),
            queue_depth: 16,
            max_connections: 256,
            drain_deadline: Duration::from_secs(2),
            rate_limit: None,
            thread_name_prefix: "hsp-http".to_string(),
            metrics: None,
        }
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("workers", &self.workers)
            .field("read_timeout", &self.read_timeout)
            .field("request_deadline", &self.request_deadline)
            .field("idle_timeout", &self.idle_timeout)
            .field("write_timeout", &self.write_timeout)
            .field("queue_depth", &self.queue_depth)
            .field("max_connections", &self.max_connections)
            .field("drain_deadline", &self.drain_deadline)
            .field("rate_limit", &self.rate_limit)
            .field("thread_name_prefix", &self.thread_name_prefix)
            .field("metrics", &self.metrics.is_some())
            .finish()
    }
}

/// Pre-resolved transport metric handles (hot path = atomics only).
struct ServerMetrics {
    requests: Arc<Counter>,
    class_2xx: Arc<Counter>,
    class_3xx: Arc<Counter>,
    class_4xx: Arc<Counter>,
    class_5xx: Arc<Counter>,
    latency_us: Arc<Histogram>,
    request_bytes: Arc<Counter>,
    response_bytes: Arc<Counter>,
    connections: Arc<Counter>,
    active_connections: Arc<Gauge>,
    accept_queue: Arc<Gauge>,
    accept_errors: Arc<Counter>,
    decode_errors: Arc<Counter>,
    shutdown_rejects: Arc<Counter>,
    shed_queue_full: Arc<Counter>,
    shed_overcap: Arc<Counter>,
    rate_limited: Arc<Counter>,
    slow_closed: Arc<Counter>,
    idle_reaped: Arc<Counter>,
    drained: Arc<Counter>,
}

impl ServerMetrics {
    fn register(reg: &Registry) -> ServerMetrics {
        let class = |c: &str| reg.counter_with("http_server_status_total", &[("class", c)]);
        let shed = |r: &str| reg.counter_with("http_server_shed_total", &[("reason", r)]);
        ServerMetrics {
            requests: reg.counter("http_server_requests_total"),
            class_2xx: class("2xx"),
            class_3xx: class("3xx"),
            class_4xx: class("4xx"),
            class_5xx: class("5xx"),
            latency_us: reg.histogram("http_server_latency_us"),
            request_bytes: reg.counter("http_server_request_bytes_total"),
            response_bytes: reg.counter("http_server_response_bytes_total"),
            connections: reg.counter("http_server_connections_total"),
            active_connections: reg.gauge("http_server_active_connections"),
            accept_queue: reg.gauge("http_server_accept_queue"),
            accept_errors: reg.counter("http_server_accept_errors_total"),
            decode_errors: reg.counter("http_server_decode_errors_total"),
            shutdown_rejects: reg.counter("http_server_shutdown_rejects_total"),
            shed_queue_full: shed("queue_full"),
            shed_overcap: shed("max_connections"),
            rate_limited: reg.counter("http_server_rate_limited_total"),
            slow_closed: reg.counter("http_server_slow_client_closes_total"),
            idle_reaped: reg.counter("http_server_idle_reaped_total"),
            drained: reg.counter("http_server_drained_total"),
        }
    }

    fn observe(&self, status: u16, latency_us: u64, req_bytes: u64, resp_bytes: u64) {
        self.requests.inc();
        match status {
            200..=299 => self.class_2xx.inc(),
            300..=399 => self.class_3xx.inc(),
            400..=499 => self.class_4xx.inc(),
            _ => self.class_5xx.inc(),
        }
        self.latency_us.record(latency_us);
        self.request_bytes.add(req_bytes);
        self.response_bytes.add(resp_bytes);
    }
}

/// Per-client-IP token buckets. One lock around a small map: the edge
/// check runs once per request, far off the byte-shoveling hot path.
struct EdgeLimiter {
    cfg: RateLimit,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl EdgeLimiter {
    fn new(cfg: RateLimit) -> EdgeLimiter {
        EdgeLimiter { cfg, buckets: Mutex::new(HashMap::new()) }
    }

    /// Take one token for `ip`; `Err(retry_after_secs)` when exhausted.
    fn allow(&self, ip: IpAddr) -> std::result::Result<(), u32> {
        let now = Instant::now();
        let burst = f64::from(self.cfg.burst.max(1));
        let mut map = self.buckets.lock();
        let b = map.entry(ip).or_insert(Bucket { tokens: burst, last: now });
        let refill = now.duration_since(b.last).as_secs_f64() * self.cfg.per_sec;
        b.tokens = (b.tokens + refill).min(burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            Ok(())
        } else if self.cfg.per_sec > 0.0 {
            let wait = (1.0 - b.tokens) / self.cfg.per_sec;
            Err(wait.ceil().max(1.0) as u32)
        } else {
            Err(1)
        }
    }
}

/// State shared between the server handle, accept loop and workers.
struct Shared {
    shutdown: AtomicBool,
    draining: AtomicBool,
    drain_started: Mutex<Option<Instant>>,
    /// Admitted connections: queued + being served.
    open: AtomicUsize,
}

/// Everything a worker needs to serve connections.
struct ConnContext {
    handler: Arc<dyn Handler>,
    read_timeout: Duration,
    request_deadline: Duration,
    idle_timeout: Duration,
    write_timeout: Duration,
    drain_deadline: Duration,
    limiter: Option<EdgeLimiter>,
    shared: Arc<Shared>,
    metrics: Option<ServerMetrics>,
    /// Flight recorder from [`ServerConfig::metrics`]: edge refusals
    /// never reach a handler, so the edge annotates its own spans.
    tracer: Option<Arc<FlightRecorder>>,
}

/// A running HTTP server. Shuts down (and joins its threads) on drop.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind to `127.0.0.1:0` (ephemeral port) and start serving `handler`.
    pub fn start(handler: Arc<dyn Handler>) -> std::io::Result<Server> {
        Self::start_with(handler, ServerConfig::default())
    }

    /// Bind with explicit configuration.
    pub fn start_with(handler: Arc<dyn Handler>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            drain_started: Mutex::new(None),
            open: AtomicUsize::new(0),
        });
        let (tx, rx) = bounded::<TcpStream>(config.queue_depth.max(1));

        let ctx = Arc::new(ConnContext {
            handler,
            read_timeout: config.read_timeout,
            request_deadline: config.request_deadline,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
            drain_deadline: config.drain_deadline,
            limiter: config.rate_limit.map(EdgeLimiter::new),
            shared: Arc::clone(&shared),
            metrics: config.metrics.as_deref().map(ServerMetrics::register),
            tracer: config.metrics.as_ref().map(|r| Arc::clone(r.tracer())),
        });

        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let rx = rx.clone();
            let ctx = Arc::clone(&ctx);
            let builder = std::thread::Builder::new()
                .name(format!("{}-worker{i}", config.thread_name_prefix));
            workers.push(builder.spawn(move || {
                while let Ok(stream) = rx.recv() {
                    if let Some(m) = &ctx.metrics {
                        m.accept_queue.dec();
                    }
                    if ctx.shared.shutdown.load(Ordering::SeqCst) {
                        // Queued behind shutdown: it never reached a
                        // handler, so shed it explicitly.
                        reject_with_unavailable(stream, &ctx);
                    } else {
                        let _ = serve_connection(stream, &ctx);
                    }
                    ctx.shared.open.fetch_sub(1, Ordering::SeqCst);
                }
            })?);
        }

        let accept_ctx = Arc::clone(&ctx);
        let max_connections = config.max_connections.max(1);
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", config.thread_name_prefix))
            .spawn(move || {
                accept_loop(listener, tx, accept_ctx, max_connections);
            })?;

        Ok(Server { addr, shared, accept_thread: Some(accept_thread), workers })
    }

    /// The bound address (ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Base URL, e.g. `http://127.0.0.1:43817`.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Begin a graceful drain without blocking: in-flight requests keep
    /// completing (responses carry `Connection: close`), new
    /// connections are shed with `503`, and serving winds down within
    /// [`ServerConfig::drain_deadline`]. Call [`Server::shutdown`] (or
    /// drop) afterwards to join the threads.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let mut started = self.shared.drain_started.lock();
        if started.is_none() {
            *started = Some(Instant::now());
        }
        drop(started);
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop so it switches to shedding mode.
        let _ = TcpStream::connect(self.addr);
    }

    /// Request shutdown (graceful drain) and join all threads.
    pub fn shutdown(mut self) {
        self.do_shutdown();
    }

    fn do_shutdown(&mut self) {
        self.begin_drain();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.do_shutdown();
        }
    }
}

/// Longest pause between accept retries when `accept()` keeps failing.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Poll tick for connection reads and the drain loop. Short enough that
/// deadlines are observed promptly, long enough to stay off the CPU.
const POLL_TICK: Duration = Duration::from_millis(20);

fn accept_loop(
    listener: TcpListener,
    tx: Sender<TcpStream>,
    ctx: Arc<ConnContext>,
    max_connections: usize,
) {
    let mut backoff = Duration::from_millis(1);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                if ctx.shared.shutdown.load(Ordering::SeqCst) {
                    // Shutdown began: shed this connection explicitly,
                    // then keep shedding until the drain completes.
                    reject_with_unavailable(stream, &ctx);
                    drain_accepts(&listener, &ctx);
                    return; // tx drops, workers drain and exit
                }
                if ctx.shared.open.load(Ordering::SeqCst) >= max_connections {
                    shed(stream, &ctx, SHED_RETRY_AFTER_SECS);
                    if let Some(m) = &ctx.metrics {
                        m.shed_overcap.inc();
                    }
                    continue;
                }
                ctx.shared.open.fetch_add(1, Ordering::SeqCst);
                if let Some(m) = &ctx.metrics {
                    m.accept_queue.inc();
                }
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(stream)) => {
                        // Queue saturated: fast 503 + Retry-After, never
                        // a blocked accept loop or a silent drop.
                        ctx.shared.open.fetch_sub(1, Ordering::SeqCst);
                        if let Some(m) = &ctx.metrics {
                            m.accept_queue.dec();
                            m.shed_queue_full.inc();
                        }
                        shed(stream, &ctx, SHED_RETRY_AFTER_SECS);
                    }
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            Err(_) => {
                if ctx.shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept failure (EMFILE, ENFILE, ...)
                // must not busy-spin the accept thread: count it and
                // back off exponentially until accepts succeed again.
                if let Some(m) = &ctx.metrics {
                    m.accept_errors.inc();
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
        }
    }
}

/// After shutdown: keep shedding new connections with an explicit 503
/// until in-flight connections finish or the drain deadline passes, so
/// a draining server never answers with a connection reset.
fn drain_accepts(listener: &TcpListener, ctx: &ConnContext) {
    let started = ctx.shared.drain_started.lock().unwrap_or_else(Instant::now);
    let deadline = started + ctx.drain_deadline;
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    loop {
        match listener.accept() {
            Ok((stream, _)) => reject_with_unavailable(stream, ctx),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if Instant::now() >= deadline || ctx.shared.open.load(Ordering::SeqCst) == 0 {
                    return;
                }
                std::thread::sleep(POLL_TICK);
            }
            Err(_) => return,
        }
    }
}

/// `Retry-After` advertised on shed connections: the queue turns over
/// quickly, so a polite client may come back almost immediately.
const SHED_RETRY_AFTER_SECS: u32 = 1;

/// Shed a connection that cannot be admitted: best-effort fast
/// `503 Service Unavailable` + `Retry-After`, then close.
fn shed(mut stream: TcpStream, ctx: &ConnContext, retry_after_secs: u32) {
    let resp = Response::error(Status::SERVICE_UNAVAILABLE, "server overloaded")
        .header("Retry-After", retry_after_secs.to_string())
        .header("Connection", "close");
    let _ = stream.set_write_timeout(Some(ctx.write_timeout));
    let _ = stream.write_all(&encode_response(&resp));
}

/// Drain a connection that lost the shutdown race: best-effort
/// `503 Service Unavailable` with `Connection: close`, then drop.
fn reject_with_unavailable(mut stream: TcpStream, ctx: &ConnContext) {
    if let Some(m) = &ctx.metrics {
        m.shutdown_rejects.inc();
    }
    let resp = Response::error(Status::SERVICE_UNAVAILABLE, "server shutting down")
        .header("Retry-After", SHED_RETRY_AFTER_SECS.to_string())
        .header("Connection", "close");
    let _ = stream.set_write_timeout(Some(ctx.write_timeout));
    let _ = stream.write_all(&encode_response(&resp));
}

/// Serve keep-alive requests on one connection until close.
///
/// Reads poll on [`POLL_TICK`] so the worker observes stall deadlines
/// and drain requests promptly instead of blocking in `read(2)`.
fn serve_connection(mut stream: TcpStream, ctx: &ConnContext) -> Result<(), HttpError> {
    stream.set_read_timeout(Some(POLL_TICK))?;
    stream.set_write_timeout(Some(ctx.write_timeout))?;
    stream.set_nodelay(true)?;
    let peer_ip = stream.peer_addr().map(|a| a.ip()).unwrap_or(IpAddr::V4(Ipv4Addr::UNSPECIFIED));
    let _active = ctx.metrics.as_ref().map(|m| {
        m.connections.inc();
        ActiveGuard::new(Arc::clone(&m.active_connections))
    });
    let mut buf = BytesMut::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    // Last time any byte arrived (stall detection) and when the
    // currently-buffered partial request started (trickle detection).
    let mut last_progress = Instant::now();
    let mut request_started: Option<Instant> = None;
    loop {
        // Decode as many pipelined requests as the buffer holds.
        loop {
            let buffered = buf.len();
            match decode_request(&mut buf) {
                Ok(Decoded::Complete(req)) => {
                    request_started = if buf.is_empty() { None } else { Some(Instant::now()) };
                    let req_bytes = (buffered - buf.len()) as u64;
                    let started = Instant::now();
                    let close = req.headers.connection_close();
                    // Edge rate limit: over-limit requests are answered
                    // before the handler ever sees them.
                    if let Some(limiter) = &ctx.limiter {
                        if let Err(retry_after) = limiter.allow(peer_ip) {
                            let resp = Response::error(Status::TOO_MANY_REQUESTS, "rate limited")
                                .header("Retry-After", retry_after.to_string())
                                .header(crate::resilient::H_EDGE_LIMITED, "1");
                            // The refusal never reaches a handler, so
                            // the edge writes the trace span itself.
                            if let Some(tracer) = ctx.tracer.as_ref().filter(|t| t.is_enabled()) {
                                if let Some(tc) =
                                    req.headers.get(H_TRACE_ID).and_then(TraceCtx::parse)
                                {
                                    tracer.record(SpanRecord {
                                        trace_id: tc.trace_id,
                                        span_id: tc.span(SLOT_EDGE),
                                        parent_id: tc.root_span(),
                                        lane: tc.lane,
                                        ordinal: tc.ordinal,
                                        name: "edge-limit".to_string(),
                                        begin_ms: 0,
                                        end_ms: 0,
                                        status: 429,
                                        outcome: "refused".to_string(),
                                        provenance: "edge".to_string(),
                                        captcha_ms: 0,
                                    });
                                }
                            }
                            let wire = encode_response(&resp);
                            stream.write_all(&wire)?;
                            let latency_us = started.elapsed().as_micros() as u64;
                            if let Some(m) = &ctx.metrics {
                                m.rate_limited.inc();
                                m.observe(
                                    resp.status.code(),
                                    latency_us,
                                    req_bytes,
                                    wire.len() as u64,
                                );
                            }
                            if close {
                                return Ok(());
                            }
                            continue;
                        }
                    }
                    let head_only = req.method == Method::Head;
                    let mut resp = if head_only {
                        // RFC 9110: HEAD is GET without the body; the
                        // Content-Length still describes the GET body.
                        let mut get = req.clone();
                        get.method = Method::Get;
                        ctx.handler.handle(&get)
                    } else {
                        ctx.handler.handle(&req)
                    };
                    let draining = ctx.shared.draining.load(Ordering::SeqCst);
                    if draining {
                        // Finish this request, then let the connection go.
                        resp = resp.header("Connection", "close");
                    }
                    let resp_close = resp.headers.connection_close();
                    let wire = if head_only {
                        crate::wire::encode_response_head(&resp)
                    } else {
                        encode_response(&resp)
                    };
                    stream.write_all(&wire)?;
                    let latency_us = started.elapsed().as_micros() as u64;
                    if let Some(m) = &ctx.metrics {
                        m.observe(resp.status.code(), latency_us, req_bytes, wire.len() as u64);
                    }
                    if close || resp_close {
                        if draining {
                            if let Some(m) = &ctx.metrics {
                                m.drained.inc();
                            }
                        }
                        return Ok(());
                    }
                }
                Ok(Decoded::Incomplete) => break,
                Err(e) => {
                    // Tell the peer off and drop the connection.
                    if let Some(m) = &ctx.metrics {
                        m.decode_errors.inc();
                    }
                    let resp = Response::error(Status::BAD_REQUEST, "bad request");
                    let _ = stream.write_all(&encode_response(&resp));
                    return Err(e);
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                if buf.is_empty() {
                    request_started = Some(Instant::now());
                }
                last_progress = Instant::now();
                buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                let now = Instant::now();
                if ctx.shared.draining.load(Ordering::SeqCst) {
                    let started = ctx.shared.drain_started.lock().unwrap_or(now);
                    if buf.is_empty() || now >= started + ctx.drain_deadline {
                        // Nothing in flight (or past the deadline):
                        // the drain lets this connection go.
                        if let Some(m) = &ctx.metrics {
                            m.drained.inc();
                        }
                        return Ok(());
                    }
                }
                if buf.is_empty() {
                    if now.duration_since(last_progress) >= ctx.idle_timeout {
                        // Idle keep-alive connection: reap quietly.
                        if let Some(m) = &ctx.metrics {
                            m.idle_reaped.inc();
                        }
                        return Ok(());
                    }
                } else {
                    let stalled = now.duration_since(last_progress) >= ctx.read_timeout;
                    let overdue = request_started
                        .is_some_and(|t| now.duration_since(t) >= ctx.request_deadline);
                    if stalled || overdue {
                        // Slowloris: partial request either stalled
                        // outright or is trickling past the deadline.
                        if let Some(m) = &ctx.metrics {
                            m.slow_closed.inc();
                        }
                        let resp = Response::error(Status::REQUEST_TIMEOUT, "request timeout")
                            .header("Connection", "close");
                        let _ = stream.write_all(&encode_response(&resp));
                        return Ok(());
                    }
                }
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// RAII increment/decrement of the active-connection gauge.
struct ActiveGuard(Arc<Gauge>);

impl ActiveGuard {
    fn new(g: Arc<Gauge>) -> ActiveGuard {
        g.inc();
        ActiveGuard(g)
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Request;
    use crate::router::Router;
    use crate::wire::{decode_response, encode_request};

    fn test_router() -> Arc<Router> {
        let mut router = Router::new();
        router.get("/ping", |_, _| Response::text("pong"));
        router.get("/echo/:word", |_, p| Response::text(p.get("word").unwrap().to_string()));
        Arc::new(router)
    }

    fn test_server() -> Server {
        Server::start(test_router()).unwrap()
    }

    fn raw_round_trip(addr: SocketAddr, reqs: &[Request]) -> Vec<Response> {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut out = Vec::new();
        for req in reqs {
            stream.write_all(&encode_request(req)).unwrap();
        }
        let mut buf = BytesMut::new();
        let mut chunk = [0u8; 1024];
        while out.len() < reqs.len() {
            while let Decoded::Complete(r) = decode_response(&mut buf).unwrap() {
                out.push(r);
                if out.len() == reqs.len() {
                    return out;
                }
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early");
            buf.extend_from_slice(&chunk[..n]);
        }
        out
    }

    #[test]
    fn serves_over_real_tcp() {
        let server = test_server();
        let resps = raw_round_trip(server.addr(), &[Request::get("/ping")]);
        assert_eq!(resps[0].body_string(), "pong");
        server.shutdown();
    }

    #[test]
    fn keep_alive_serves_multiple_requests() {
        let server = test_server();
        let resps = raw_round_trip(
            server.addr(),
            &[Request::get("/ping"), Request::get("/echo/two"), Request::get("/ping")],
        );
        assert_eq!(resps.len(), 3);
        assert_eq!(resps[1].body_string(), "two");
        server.shutdown();
    }

    #[test]
    fn concurrent_clients_are_served() {
        let server = test_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let word = format!("w{i}");
                    let resps = raw_round_trip(addr, &[Request::get(format!("/echo/{word}"))]);
                    assert_eq!(resps[0].body_string(), word);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn head_returns_headers_with_get_content_length_and_no_body() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let mut req = Request::get("/ping");
        req.method = Method::Head;
        // Close so EOF delimits the (bodyless) response.
        req.headers.set("Connection", "close");
        stream.write_all(&encode_request(&req)).unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 200"), "got: {text}");
        // Content-Length matches the GET body ("pong" = 4)...
        assert!(text.contains("Content-Length: 4"), "got: {text}");
        // ...but the body itself is absent.
        assert!(text.ends_with("\r\n\r\n"), "body bytes were sent: {text:?}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf);
        assert!(text.starts_with("HTTP/1.1 400"), "got: {text}");
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = test_server();
        let addr = server.addr();
        server.shutdown();
        // Subsequent connections must fail or be refused quickly.
        let ok = TcpStream::connect(addr)
            .map(|mut s| {
                let _ = s.write_all(&encode_request(&Request::get("/ping")));
                let mut buf = [0u8; 16];
                matches!(s.read(&mut buf), Ok(0) | Err(_))
            })
            .unwrap_or(true);
        assert!(ok, "server still serving after shutdown");
    }

    #[test]
    fn transport_metrics_account_for_requests() {
        let reg = Registry::shared();
        let config = ServerConfig {
            metrics: Some(Arc::clone(&reg)),
            thread_name_prefix: "metrics-test".to_string(),
            ..ServerConfig::default()
        };
        let server = Server::start_with(test_router(), config).unwrap();
        raw_round_trip(server.addr(), &[Request::get("/ping"), Request::get("/nope")]);
        server.shutdown();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("http_server_requests_total"), 2);
        assert_eq!(snap.counter("http_server_status_total{class=\"2xx\"}"), 1);
        assert_eq!(snap.counter("http_server_status_total{class=\"4xx\"}"), 1);
        assert_eq!(snap.counter("http_server_connections_total"), 1);
        assert!(snap.counter("http_server_response_bytes_total") > 0);
        assert!(snap.counter("http_server_request_bytes_total") > 0);
        let lat = snap.histogram("http_server_latency_us").unwrap();
        assert_eq!(lat.count, 2);
        // All connections done: both gauges are back to zero.
        assert_eq!(snap.gauge("http_server_active_connections"), 0);
        assert_eq!(snap.gauge("http_server_accept_queue"), 0);
    }

    #[test]
    fn edge_rate_limit_answers_429_with_retry_after() {
        let reg = Registry::shared();
        let config = ServerConfig {
            rate_limit: Some(RateLimit { burst: 3, per_sec: 0.5 }),
            metrics: Some(Arc::clone(&reg)),
            thread_name_prefix: "ratelimit-test".to_string(),
            ..ServerConfig::default()
        };
        let server = Server::start_with(test_router(), config).unwrap();
        let reqs = vec![Request::get("/ping"); 5];
        let resps = raw_round_trip(server.addr(), &reqs);
        server.shutdown();
        let ok = resps.iter().filter(|r| r.status == Status::OK).count();
        let limited: Vec<_> =
            resps.iter().filter(|r| r.status == Status::TOO_MANY_REQUESTS).collect();
        assert_eq!(ok, 3, "burst of 3 should pass");
        assert_eq!(limited.len(), 2);
        for r in &limited {
            let ra: u32 = r.headers.get("Retry-After").expect("Retry-After").parse().unwrap();
            assert!(ra >= 1);
        }
        assert_eq!(reg.snapshot().counter("http_server_rate_limited_total"), 2);
    }

    #[test]
    fn slowloris_partial_request_gets_408() {
        let reg = Registry::shared();
        let config = ServerConfig {
            read_timeout: Duration::from_millis(80),
            metrics: Some(Arc::clone(&reg)),
            thread_name_prefix: "slowloris-test".to_string(),
            ..ServerConfig::default()
        };
        let server = Server::start_with(test_router(), config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Half a request line, then stall.
        stream.write_all(b"GET /pi").unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.starts_with("HTTP/1.1 408"), "got: {text}");
        server.shutdown();
        assert_eq!(reg.snapshot().counter("http_server_slow_client_closes_total"), 1);
    }

    #[test]
    fn idle_keep_alive_connection_is_reaped() {
        let reg = Registry::shared();
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(80),
            metrics: Some(Arc::clone(&reg)),
            thread_name_prefix: "idle-test".to_string(),
            ..ServerConfig::default()
        };
        let server = Server::start_with(test_router(), config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(&encode_request(&Request::get("/ping"))).unwrap();
        // Read the response, then go idle; the server closes (EOF).
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        assert!(String::from_utf8_lossy(&raw).starts_with("HTTP/1.1 200"));
        server.shutdown();
        assert_eq!(reg.snapshot().counter("http_server_idle_reaped_total"), 1);
    }
}
