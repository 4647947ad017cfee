//! Deterministic transport-level chaos beneath [`Exchange`].
//!
//! The platform's `FaultEngine` (hsp-platform) injects *handler-level*
//! hostility: the server answers, but with 429s, 5xxs or torn bodies.
//! This module attacks the layer below — the bytes between client and
//! server: requests that never arrive, responses lost after the server
//! already acted, reads that stall or die mid-body, corrupted framing,
//! and keep-alive connections closed at the worst possible moment
//! (right after a POST was written). The paper's crawl survived exactly
//! this weather for days (§3.2); the soak harness proves ours does too.
//!
//! Two layers:
//!
//! - [`ChaosTransport`] wraps any [`Exchange`] and injects
//!   transport-outcome faults from a seeded SplitMix64 stream. The
//!   schedule is a pure function of (seed, request sequence) — the same
//!   bit-replayable discipline as the fault engine and the retry
//!   jitter, so a failing soak seed replays exactly. Stalls advance the
//!   shared virtual clock rather than sleeping.
//! - [`ChaosStream`] wraps a raw `Read + Write` byte stream and
//!   deterministically splits writes and shortens reads, exercising the
//!   incremental decoder against pathological TCP segmentation.
//!
//! [`ChaosTransport`] also runs a watchdog for the standing invariant
//! that the transport retry layers never replay a POST: it fingerprints
//! every delivered POST and counts re-deliveries that follow a
//! transport failure of the same fingerprint
//! ([`ChaosStats::post_redeliveries`]). The crawler's *intentional*
//! application-level auth retries are accounted separately by the
//! crawler itself; the soak asserts the two counts match — any excess
//! means a transport layer silently double-sent a POST.

use crate::client::Exchange;
use crate::error::{HttpError, Result};
use crate::message::{Request, Response};
use crate::resilient::{is_edge_limited, is_shed, H_TRACE_ID};
use crate::types::Method;
use hsp_obs::trace::{fnv1a_chain, splitmix64, SpanRecord, FNV_OFFSET, SLOT_CHAOS};
use hsp_obs::{FlightRecorder, TraceCtx, VirtualClock};
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Declarative transport-chaos schedule. Probabilities are per-mille
/// (0–1000) per eligible exchange; the all-zero [`Default`] injects
/// nothing. [`ChaosPlan::chaos`] is the canonical hostile profile.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosPlan {
    /// Master switch; `false` short-circuits every roll.
    pub enabled: bool,
    /// Seed of the chaos RNG stream. Wrappers for different accounts
    /// should derive distinct seeds (e.g. `seed ^ account_index`) so
    /// each account has its own schedule, independent of interleaving.
    pub seed: u64,
    /// Request lost before reaching the server (connection died while
    /// writing). Safe to retry: the server never saw it.
    pub abort_before_per_mille: u32,
    /// Response lost after the server processed the request (connection
    /// died while reading). The dangerous one: a blind resend would
    /// double-send.
    pub abort_after_per_mille: u32,
    /// Keep-alive connection closed at the worst moment: a POST was
    /// written and the response never arrives. Applies to POSTs only.
    pub close_post_per_mille: u32,
    /// Stalled read: the response arrives, but only after a stall that
    /// advances the virtual clock by `stall_min_ms..=stall_max_ms`.
    pub stall_per_mille: u32,
    pub stall_min_ms: u64,
    pub stall_max_ms: u64,
    /// Short read: the response dies mid-body (framing incomplete).
    pub truncate_per_mille: u32,
    /// Response bytes corrupted in flight: decode fails.
    pub corrupt_per_mille: u32,
}

impl Default for ChaosPlan {
    fn default() -> ChaosPlan {
        ChaosPlan {
            enabled: false,
            seed: 0xC4A0_2013,
            abort_before_per_mille: 0,
            abort_after_per_mille: 0,
            close_post_per_mille: 0,
            stall_per_mille: 0,
            stall_min_ms: 20,
            stall_max_ms: 800,
            truncate_per_mille: 0,
            corrupt_per_mille: 0,
        }
    }
}

impl ChaosPlan {
    /// The canonical hostile transport profile used by the soak.
    pub fn chaos() -> ChaosPlan {
        ChaosPlan {
            enabled: true,
            abort_before_per_mille: 15,
            abort_after_per_mille: 10,
            close_post_per_mille: 60,
            stall_per_mille: 80,
            truncate_per_mille: 10,
            corrupt_per_mille: 8,
            ..ChaosPlan::default()
        }
    }

    /// Same plan, different seed (per-account derivation).
    pub fn with_seed(&self, seed: u64) -> ChaosPlan {
        ChaosPlan { seed, ..self.clone() }
    }

    /// Scale every probabilistic fault class by `factor`, clamped to
    /// valid per-mille. Used by intensity sweeps.
    pub fn scaled(&self, factor: f64) -> ChaosPlan {
        let scale = |pm: u32| ((pm as f64 * factor).round() as u32).min(1_000);
        ChaosPlan {
            abort_before_per_mille: scale(self.abort_before_per_mille),
            abort_after_per_mille: scale(self.abort_after_per_mille),
            close_post_per_mille: scale(self.close_post_per_mille),
            stall_per_mille: scale(self.stall_per_mille),
            truncate_per_mille: scale(self.truncate_per_mille),
            corrupt_per_mille: scale(self.corrupt_per_mille),
            ..self.clone()
        }
    }
}

/// FNV-1a over method + target + body: the POST fingerprint.
fn fingerprint(req: &Request) -> u64 {
    let fnv1a = |bytes: &[u8]| fnv1a_chain(FNV_OFFSET, bytes);
    let mut h = fnv1a(req.method.as_str().as_bytes());
    h ^= fnv1a(req.target.as_bytes()).rotate_left(17);
    h ^ fnv1a(&req.body).rotate_left(31)
}

/// Counters shared between a fleet of [`ChaosTransport`]s and the soak
/// harness that audits them.
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Exchanges actually delivered to the inner transport (the server
    /// saw these). Aborted-before-delivery requests are *not* included,
    /// which is what lets the soak reconcile the platform's
    /// served-request audit with the crawler's effort.
    pub delivered: AtomicU64,
    /// Requests lost before delivery.
    pub aborted_before: AtomicU64,
    /// Responses lost after delivery.
    pub aborted_after: AtomicU64,
    /// Keep-alive closes right after a POST was written.
    pub worst_moment_closes: AtomicU64,
    /// Stalled reads injected.
    pub stalls: AtomicU64,
    /// Virtual milliseconds spent in injected stalls.
    pub stall_virtual_ms: AtomicU64,
    /// Responses truncated mid-body.
    pub truncated: AtomicU64,
    /// Responses corrupted in flight.
    pub corrupted: AtomicU64,
    /// Delivered exchanges the server's *edge* refused (shed `503` with
    /// `Retry-After`, or an edge-limiter `429`), counted even when chaos
    /// destroys the refusal afterwards. `delivered − refused` is the
    /// requests the platform's handlers actually served, which the soak
    /// reconciles against the platform's own route audit.
    pub refused: AtomicU64,
    /// POSTs delivered again after a transport failure of the same
    /// fingerprint. Every one must be matched by an intentional
    /// application-level retry; an excess means a transport layer
    /// silently replayed a POST.
    pub post_redeliveries: AtomicU64,
}

macro_rules! stat_getters {
    ($($name:ident),+ $(,)?) => {
        $(pub fn $name(&self) -> u64 { self.$name.load(Ordering::Relaxed) })+
    };
}

impl ChaosStats {
    stat_getters!(
        delivered,
        aborted_before,
        aborted_after,
        worst_moment_closes,
        stalls,
        stall_virtual_ms,
        truncated,
        corrupted,
        refused,
        post_redeliveries,
    );

    /// Total injected transport faults (excludes stalls, which deliver).
    pub fn total_faults(&self) -> u64 {
        self.aborted_before()
            + self.aborted_after()
            + self.worst_moment_closes()
            + self.truncated()
            + self.corrupted()
    }
}

/// An [`Exchange`] wrapper injecting deterministic transport faults.
///
/// Sits *beneath* `ResilientExchange` (chaos happens on the wire, the
/// retry layer reacts to it) and above the real transport
/// (`DirectExchange` or `Client`), composing freely with the
/// handler-level `FaultEngine` on the server side.
pub struct ChaosTransport<E> {
    inner: E,
    plan: ChaosPlan,
    clock: Arc<VirtualClock>,
    stats: Arc<ChaosStats>,
    stream_key: u64,
    counter: u64,
    /// Fingerprint of the last POST whose delivery ended in a transport
    /// failure; armed until a POST is delivered again.
    last_failed_post: Option<u64>,
    tracer: Option<Arc<FlightRecorder>>,
}

impl<E: Exchange> ChaosTransport<E> {
    pub fn new(inner: E, plan: ChaosPlan, clock: Arc<VirtualClock>) -> ChaosTransport<E> {
        Self::with_stats(inner, plan, clock, Arc::new(ChaosStats::default()))
    }

    /// Like [`new`](Self::new) but folding injections into a shared
    /// stats block — one audit handle for a whole fleet.
    pub fn with_stats(
        inner: E,
        plan: ChaosPlan,
        clock: Arc<VirtualClock>,
        stats: Arc<ChaosStats>,
    ) -> ChaosTransport<E> {
        let stream_key = splitmix64(plan.seed);
        ChaosTransport {
            inner,
            plan,
            clock,
            stats,
            stream_key,
            counter: 0,
            last_failed_post: None,
            tracer: None,
        }
    }

    /// Record one span per injected fault into `tracer` for requests
    /// carrying an `x-trace-id` header, so a retry chain's causal
    /// explanation includes the transport weather that forced it.
    pub fn with_tracer(mut self, tracer: Arc<FlightRecorder>) -> ChaosTransport<E> {
        self.tracer = Some(tracer);
        self
    }

    fn trace_injection(&self, ctx: Option<TraceCtx>, kind: &str, begin_ms: u64) {
        let (Some(tracer), Some(ctx)) = (self.tracer.as_ref(), ctx) else { return };
        if !tracer.is_enabled() {
            return;
        }
        tracer.record(SpanRecord {
            trace_id: ctx.trace_id,
            // Salted by the per-lane exchange counter: one trace can see
            // several injections (one per retry), each its own span.
            span_id: splitmix64(ctx.span(SLOT_CHAOS) ^ self.counter),
            parent_id: ctx.root_span(),
            lane: ctx.lane,
            ordinal: ctx.ordinal,
            name: format!("chaos:{kind}"),
            begin_ms,
            end_ms: self.clock.now_ms(),
            status: 0,
            outcome: "inject".to_string(),
            provenance: String::new(),
            captcha_ms: 0,
        });
    }

    /// Shared injection counters (clone the Arc to audit elsewhere).
    pub fn stats(&self) -> Arc<ChaosStats> {
        Arc::clone(&self.stats)
    }

    /// The wrapped transport (e.g. to inspect cookies in tests).
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn draw(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        splitmix64(self.stream_key ^ splitmix64(self.counter))
    }

    fn roll(&mut self, per_mille: u32) -> bool {
        // Draw unconditionally so the stream position is a pure
        // function of the request sequence, not of which fault classes
        // are enabled.
        let v = self.draw() % 1_000;
        per_mille > 0 && v < u64::from(per_mille)
    }

    fn stall_ms(&mut self) -> u64 {
        let lo = self.plan.stall_min_ms.min(self.plan.stall_max_ms);
        let hi = self.plan.stall_max_ms.max(self.plan.stall_min_ms);
        lo + self.draw() % (hi - lo + 1)
    }
}

impl<E: Exchange> Exchange for ChaosTransport<E> {
    fn exchange(&mut self, req: Request) -> Result<Response> {
        if !self.plan.enabled {
            self.stats.delivered.fetch_add(1, Ordering::Relaxed);
            let resp = self.inner.exchange(req)?;
            // The delivered/refused ledger must balance even with chaos
            // off — audits compare it against the server's own counters.
            if is_shed(&resp) || is_edge_limited(&resp) {
                self.stats.refused.fetch_add(1, Ordering::Relaxed);
            }
            return Ok(resp);
        }
        let is_post = req.method == Method::Post;
        let fp = is_post.then(|| fingerprint(&req));
        let ctx = req.headers.get(H_TRACE_ID).and_then(TraceCtx::parse);
        let begin_ms = self.clock.now_ms();

        // Fixed roll order keeps the stream replayable.
        let abort_before = self.roll(self.plan.abort_before_per_mille);
        let close_post = self.roll(self.plan.close_post_per_mille) && is_post;
        let abort_after = self.roll(self.plan.abort_after_per_mille);
        let stall = self.roll(self.plan.stall_per_mille);
        let truncate = self.roll(self.plan.truncate_per_mille);
        let corrupt = self.roll(self.plan.corrupt_per_mille);

        if abort_before {
            // The server never sees this request, so a retry is safe
            // and the failed-POST watchdog stays unarmed.
            self.stats.aborted_before.fetch_add(1, Ordering::Relaxed);
            self.trace_injection(ctx, "abort-before", begin_ms);
            return Err(HttpError::Io(std::io::Error::new(
                ErrorKind::ConnectionReset,
                "chaos: connection reset before request was written",
            )));
        }

        // Delivery: the inner transport (and thus the server) runs the
        // request, whatever happens to the response afterwards.
        if let Some(fp) = fp {
            if self.last_failed_post == Some(fp) {
                self.stats.post_redeliveries.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.stats.delivered.fetch_add(1, Ordering::Relaxed);
        let resp = match self.inner.exchange(req) {
            Ok(resp) => resp,
            Err(e) => {
                // A *real* transport failure after delivery: for a POST
                // the watchdog arms, exactly as for injected failures —
                // a silent replay below this layer would still be caught.
                if fp.is_some() {
                    self.last_failed_post = fp;
                }
                return Err(e);
            }
        };
        if is_shed(&resp) || is_edge_limited(&resp) {
            // Edge refusal: the server answered, but no handler ran.
            self.stats.refused.fetch_add(1, Ordering::Relaxed);
        }

        if close_post {
            self.stats.worst_moment_closes.fetch_add(1, Ordering::Relaxed);
            self.last_failed_post = fp;
            self.trace_injection(ctx, "close-post", begin_ms);
            return Err(HttpError::UnexpectedEof);
        }
        if abort_after {
            self.stats.aborted_after.fetch_add(1, Ordering::Relaxed);
            self.last_failed_post = fp.or(self.last_failed_post);
            self.trace_injection(ctx, "abort-after", begin_ms);
            return Err(HttpError::Io(std::io::Error::new(
                ErrorKind::ConnectionReset,
                "chaos: connection reset before response was read",
            )));
        }
        if truncate {
            self.stats.truncated.fetch_add(1, Ordering::Relaxed);
            self.last_failed_post = fp.or(self.last_failed_post);
            self.trace_injection(ctx, "truncate", begin_ms);
            return Err(HttpError::UnexpectedEof);
        }
        if corrupt {
            self.stats.corrupted.fetch_add(1, Ordering::Relaxed);
            self.last_failed_post = fp.or(self.last_failed_post);
            self.trace_injection(ctx, "corrupt", begin_ms);
            return Err(HttpError::Malformed("chaos: corrupted response bytes"));
        }
        if stall {
            let ms = self.stall_ms();
            self.stats.stalls.fetch_add(1, Ordering::Relaxed);
            self.stats.stall_virtual_ms.fetch_add(ms, Ordering::Relaxed);
            self.clock.advance_ms(ms);
            self.trace_injection(ctx, "stall", begin_ms);
        }
        if is_post {
            // This POST made it through; the watchdog disarms.
            self.last_failed_post = None;
        }
        Ok(resp)
    }

    fn clear_session(&mut self) {
        self.inner.clear_session();
    }
}

/// A `Read + Write` wrapper that deterministically fragments I/O:
/// writes land in small split chunks and reads return fewer bytes than
/// asked. Semantically lossless — every byte still flows, in order —
/// which makes it the right tool for proving the incremental codec and
/// server survive pathological TCP segmentation.
pub struct ChaosStream<S> {
    inner: S,
    state: u64,
    /// Largest chunk a single `write` will accept.
    pub max_write_chunk: usize,
    /// Largest byte count a single `read` will return.
    pub max_read_chunk: usize,
}

impl<S> ChaosStream<S> {
    pub fn new(inner: S, seed: u64) -> ChaosStream<S> {
        ChaosStream { inner, state: splitmix64(seed), max_write_chunk: 7, max_read_chunk: 5 }
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    fn draw(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let cap = 1 + (self.draw() as usize) % self.max_read_chunk.max(1);
        let cap = cap.min(buf.len().max(1)).min(buf.len());
        if cap == 0 {
            return Ok(0);
        }
        self.inner.read(&mut buf[..cap])
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let cap = 1 + (self.draw() as usize) % self.max_write_chunk.max(1);
        let cap = cap.min(buf.len());
        if cap == 0 {
            return Ok(0);
        }
        self.inner.write(&buf[..cap])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilient::{ResilientExchange, RetryPolicy};
    use crate::types::Status;

    /// Inner exchange that always succeeds and records what it saw.
    struct Recorder {
        seen: Vec<(Method, String)>,
    }

    impl Recorder {
        fn new() -> Recorder {
            Recorder { seen: Vec::new() }
        }
    }

    impl Exchange for Recorder {
        fn exchange(&mut self, req: Request) -> Result<Response> {
            self.seen.push((req.method, req.target.clone()));
            Ok(Response::html("<html>ok</html>"))
        }

        fn clear_session(&mut self) {}
    }

    fn chaotic(plan: ChaosPlan) -> ChaosTransport<Recorder> {
        ChaosTransport::new(Recorder::new(), plan, VirtualClock::shared())
    }

    #[test]
    fn disabled_plan_is_a_passthrough() {
        let mut ex = chaotic(ChaosPlan::default());
        for _ in 0..50 {
            assert!(ex.exchange(Request::get("/x")).is_ok());
        }
        assert_eq!(ex.stats().delivered(), 50);
        assert_eq!(ex.stats().total_faults(), 0);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let run = |seed: u64| {
            let mut ex = chaotic(ChaosPlan::chaos().with_seed(seed));
            (0..300)
                .map(|i| match ex.exchange(Request::get(format!("/p/{i}"))) {
                    Ok(_) => 0u8,
                    Err(HttpError::Io(_)) => 1,
                    Err(HttpError::UnexpectedEof) => 2,
                    Err(HttpError::Malformed(_)) => 3,
                    Err(_) => 4,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11), "same seed must replay bit-identically");
        assert_ne!(run(11), run(12), "different seeds should differ");
    }

    #[test]
    fn aborted_before_is_not_delivered() {
        let plan =
            ChaosPlan { enabled: true, abort_before_per_mille: 1_000, ..ChaosPlan::default() };
        let mut ex = chaotic(plan);
        for _ in 0..10 {
            assert!(matches!(ex.exchange(Request::get("/x")), Err(HttpError::Io(_))));
        }
        assert_eq!(ex.stats().aborted_before(), 10);
        assert_eq!(ex.stats().delivered(), 0);
        assert!(ex.inner().seen.is_empty(), "server must never see aborted-before requests");
    }

    #[test]
    fn aborted_after_was_delivered() {
        let plan =
            ChaosPlan { enabled: true, abort_after_per_mille: 1_000, ..ChaosPlan::default() };
        let mut ex = chaotic(plan);
        assert!(ex.exchange(Request::get("/x")).is_err());
        assert_eq!(ex.stats().delivered(), 1);
        assert_eq!(ex.inner().seen.len(), 1, "the server processed it; only the response died");
    }

    #[test]
    fn post_redelivery_watchdog_counts_retries_of_failed_posts() {
        let plan = ChaosPlan { enabled: true, close_post_per_mille: 1_000, ..ChaosPlan::default() };
        let mut ex = chaotic(plan);
        let post = || Request::post_form("/signup", &[("user", "eve")]);
        assert!(matches!(ex.exchange(post()), Err(HttpError::UnexpectedEof)));
        assert_eq!(ex.stats().post_redeliveries(), 0);
        // The same POST again: a redelivery after a transport failure.
        let _ = ex.exchange(post());
        assert_eq!(ex.stats().post_redeliveries(), 1);
        // An unrelated GET in between must not disarm the watchdog.
        let mut ex = chaotic(ChaosPlan {
            enabled: true,
            close_post_per_mille: 1_000,
            ..ChaosPlan::default()
        });
        let _ = ex.exchange(post());
        let _ = ex.exchange(Request::get("/probe"));
        let _ = ex.exchange(post());
        assert_eq!(ex.stats().post_redeliveries(), 1);
    }

    #[test]
    fn successful_post_disarms_the_watchdog() {
        let mut ex = chaotic(ChaosPlan { enabled: true, ..ChaosPlan::default() });
        let post = || Request::post_form("/signup", &[("user", "eve")]);
        assert!(ex.exchange(post()).is_ok());
        assert!(ex.exchange(post()).is_ok());
        assert_eq!(ex.stats().post_redeliveries(), 0, "no failure, no redelivery");
    }

    #[test]
    fn edge_refusals_are_counted_but_not_as_handler_work() {
        // delivered − refused is the soak harness's "requests the
        // platform's handlers actually served" ledger line: shed 503s
        // and edge-limiter 429s reached the server but no handler, so
        // both must land in `refused` — an application-level 429 (no
        // edge marker) must not.
        struct Refuser {
            n: u32,
        }
        impl Exchange for Refuser {
            fn exchange(&mut self, _req: Request) -> Result<Response> {
                self.n += 1;
                Ok(match self.n % 3 {
                    0 => Response::error(Status::SERVICE_UNAVAILABLE, "overloaded")
                        .header("Retry-After", "1"),
                    1 => Response::error(Status::TOO_MANY_REQUESTS, "edge limited")
                        .header("Retry-After", "1")
                        .header(crate::resilient::H_EDGE_LIMITED, "1"),
                    _ => Response::error(Status::TOO_MANY_REQUESTS, "app limited")
                        .header("Retry-After", "1"),
                })
            }

            fn clear_session(&mut self) {}
        }
        let mut ex =
            ChaosTransport::new(Refuser { n: 0 }, ChaosPlan::default(), VirtualClock::shared());
        for _ in 0..9 {
            ex.exchange(Request::get("/x")).unwrap();
        }
        assert_eq!(ex.stats().delivered(), 9);
        assert_eq!(ex.stats().refused(), 6, "3 sheds + 3 edge 429s; app 429s are handler work");
    }

    #[test]
    fn stalls_advance_the_virtual_clock_only() {
        let plan = ChaosPlan {
            enabled: true,
            stall_per_mille: 1_000,
            stall_min_ms: 100,
            stall_max_ms: 100,
            ..ChaosPlan::default()
        };
        let clock = VirtualClock::shared();
        let mut ex = ChaosTransport::new(Recorder::new(), plan, Arc::clone(&clock));
        let wall = std::time::Instant::now();
        for _ in 0..20 {
            ex.exchange(Request::get("/x")).unwrap();
        }
        assert_eq!(clock.now_ms(), 2_000);
        assert_eq!(ex.stats().stalls(), 20);
        assert_eq!(ex.stats().stall_virtual_ms(), 2_000);
        assert!(wall.elapsed() < std::time::Duration::from_secs(1), "stalls must not sleep");
    }

    #[test]
    fn composes_with_resilient_retry_for_gets() {
        // Heavy chaos under a resilient retry layer: GETs either come
        // back clean or fail after the budget — never panic, and every
        // success carries an intact body.
        let plan = ChaosPlan::chaos().scaled(4.0).with_seed(99);
        let clock = VirtualClock::shared();
        let chaos = ChaosTransport::new(Recorder::new(), plan, Arc::clone(&clock));
        let mut ex = ResilientExchange::new(chaos, RetryPolicy::seeded(7), clock);
        let mut ok = 0;
        for i in 0..200 {
            if let Ok(resp) = ex.exchange(Request::get(format!("/p/{i}"))) {
                if resp.status == Status::OK {
                    assert_eq!(resp.body_string(), "<html>ok</html>");
                    ok += 1;
                }
            }
        }
        assert!(ok > 150, "retry layer should recover most GETs, got {ok}/200");
    }

    #[test]
    fn chaos_stream_fragments_but_preserves_bytes() {
        let payload = b"GET /profile/u1 HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut sink = ChaosStream::new(Vec::<u8>::new(), 42);
        sink.write_all(payload).unwrap();
        assert_eq!(sink.into_inner(), payload.to_vec());

        let mut src = ChaosStream::new(&payload[..], 43);
        let mut out = Vec::new();
        let mut chunk = [0u8; 64];
        let mut reads = 0;
        loop {
            let n = src.read(&mut chunk).unwrap();
            if n == 0 {
                break;
            }
            assert!(n <= 5, "short reads must stay short, got {n}");
            out.extend_from_slice(&chunk[..n]);
            reads += 1;
        }
        assert_eq!(out, payload.to_vec());
        assert!(reads > payload.len() / 5, "reads should be fragmented");
    }
}
