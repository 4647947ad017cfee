//! Retry/backoff layer over any [`Exchange`].
//!
//! The paper's crawlers ran for days against a platform that rate-limited,
//! erred and reset connections; what made the attack feasible was cheap
//! client-side persistence. [`ResilientExchange`] wraps any transport with:
//!
//! - **error classification** ([`classify`], [`retryable_transport_error`]):
//!   retryable (429, 500, 503, connection reset) vs fatal (account
//!   suspension, session expiry — these need account-level recovery, not a
//!   blind resend, and are surfaced to the caller);
//! - **capped exponential backoff with full jitter**, honoring the
//!   server's `Retry-After` header;
//! - **per-request deadlines** in virtual time ([`HttpError::DeadlineExceeded`]);
//! - POST is never replayed on a transport error (it may have been
//!   processed before the connection died).
//!
//! All waiting advances a shared [`VirtualClock`] instead of sleeping, and
//! jitter comes from a seeded splitmix64 stream, so a chaos run's retry
//! schedule is a pure function of (seed, request sequence) — bit-identical
//! across runs and across TCP vs in-process transports.
//!
//! Fault signalling is header-based so both transports behave identically;
//! the header names are shared constants ([`H_RETRY_AFTER`] etc.) used by
//! the platform fault engine on the way out and this layer on the way in.

use crate::client::Exchange;
use crate::error::{HttpError, Result};
use crate::message::{Request, Response};
use crate::types::Method;
use hsp_obs::trace::{splitmix64, SpanRecord, SLOT_ATTEMPT_BASE};
use hsp_obs::{FlightRecorder, TraceCtx, VirtualClock};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wire header carrying the deterministic trace context
/// (`TraceCtx::header_value` form). Set once by the crawler per logical
/// fetch; every layer beneath — this retry layer, the chaos transport,
/// the server edge, the platform — annotates its spans against it.
pub const H_TRACE_ID: &str = "x-trace-id";

/// Standard rate-limit header: seconds to wait before retrying.
pub const H_RETRY_AFTER: &str = "Retry-After";
/// Simulated server-side latency in virtual milliseconds; the client
/// "experiences" it by advancing the virtual clock.
pub const H_VIRTUAL_LATENCY_MS: &str = "x-virtual-latency-ms";
/// Marks a 429 as an account suspension (fatal: needs failover).
pub const H_ACCOUNT_SUSPENDED: &str = "x-account-suspended";
/// Marks a 401 as a fault-injected session expiry (fatal: needs re-login).
pub const H_SESSION_EXPIRED: &str = "x-session-expired";
/// Names the injected fault, e.g. `reset` for a mid-body connection
/// reset (the body is truncated and the connection closed).
pub const H_SIMULATED_FAULT: &str = "x-simulated-fault";

/// The requester's current virtual time in milliseconds. Attached by
/// the crawler so the platform serves the world, and times the
/// session for its sybil detector, *as of the account's own timeline*:
/// every crawler seat keeps its own clock and the shared platform
/// clock never advances, so request-carried time is the only
/// representation that replays bit-identically at any worker count.
/// [`ResilientExchange`] moves the stamp forward on each retry. Absent
/// the header, the platform falls back to its own clock.
pub const H_VIRTUAL_NOW: &str = "x-virtual-now-ms";

/// Monotone per-exchange attempt sequence number, stamped on every
/// attempt when enabled ([`ResilientExchange::with_attempt_seq`]). The
/// platform uses it two ways: fault draws become a pure function of
/// `(principal, seq, draw site)` instead of arrival order, and account
/// bookkeeping treats an already-seen seq as a *replay* (no counter
/// increments, same verdict as the first time). Together these make a
/// crawl that is killed and re-driven through the same request prefix
/// land the platform in the same state as an uninterrupted run — the
/// server half of crash-only resume.
pub const H_ATTEMPT_SEQ: &str = "x-attempt-seq";

/// How a response (or transport error) should be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// Usable response — hand it to the caller.
    Terminal,
    /// Transient failure — worth retrying after a backoff, optionally
    /// with a server-mandated minimum wait.
    Retryable { retry_after_ms: Option<u64> },
    /// Account- or session-level failure (suspension, expired session):
    /// resending the same request cannot help. Returned to the caller,
    /// which must fail over or re-authenticate.
    Fatal,
}

/// Whether a response is a server-side *load shed*: the hardened edge
/// turning work away with `503` + `Retry-After` (queue saturated, too
/// many connections, draining). Distinct from a fault-injected 5xx,
/// which carries no `Retry-After`: a shed is the server asking for
/// wider spacing, and the crawler's adaptive politeness obliges.
pub fn is_shed(resp: &Response) -> bool {
    resp.status.code() == 503 && resp.headers.contains(H_RETRY_AFTER)
}

/// Marks a 429 as coming from the server's *edge* token-bucket limiter
/// (the request never reached a handler), as opposed to an
/// application-level 429 served by the platform. Audit harnesses use
/// this to reconcile the platform's route counters with what clients
/// actually sent.
pub const H_EDGE_LIMITED: &str = "x-edge-limited";

/// Whether a 429 was produced by the server's edge rate limiter rather
/// than by application code. See [`H_EDGE_LIMITED`].
pub fn is_edge_limited(resp: &Response) -> bool {
    resp.status.code() == 429 && resp.headers.contains(H_EDGE_LIMITED)
}

/// Marks a 429 as a *fault-injected* rate limit from the chaos engine,
/// as opposed to the edge limiter or the sybil detector. One of the
/// three refusal provenances audits must keep apart.
pub const H_FAULT_INJECTED: &str = "x-fault-injected";

/// CAPTCHA challenge issued by the platform's sybil detector. The value
/// is the solve cost in virtual milliseconds; the response itself is
/// still served (the challenge rides along as an interstitial), and a
/// crawler that wants to keep the session must absorb the delay.
pub const H_CAPTCHA: &str = "x-captcha";

/// Marks a 429 as a *detector throttle*: the sybil detector temporarily
/// refusing an account it has flagged. Distinct from `x-edge-limited`
/// (capacity) and `x-fault-injected` (chaos).
pub const H_THROTTLED: &str = "x-throttled";

/// Marks a suspension as a *detector* verdict (escalation ladder top),
/// alongside the generic `x-account-suspended` failover marker.
pub const H_SUSPENDED: &str = "x-suspended";

/// Whether a 429 came from the chaos fault engine. See [`H_FAULT_INJECTED`].
pub fn is_fault_limited(resp: &Response) -> bool {
    resp.status.code() == 429 && resp.headers.contains(H_FAULT_INJECTED)
}

/// Whether a 429 is a sybil-detector throttle. See [`H_THROTTLED`].
pub fn is_throttled(resp: &Response) -> bool {
    resp.status.code() == 429 && resp.headers.contains(H_THROTTLED)
}

/// CAPTCHA solve cost attached to an otherwise-served response, in
/// virtual milliseconds. See [`H_CAPTCHA`].
pub fn captcha_delay_ms(resp: &Response) -> Option<u64> {
    resp.headers.get(H_CAPTCHA).and_then(|v| v.trim().parse::<u64>().ok())
}

/// Which of the five-way refusal taxonomy a response belongs to:
/// `edge` (edge token bucket), `fault` (chaos 429), `throttle`
/// (detector throttle), `shed` (503 + `Retry-After`) or `suspension`
/// (429 + account-suspended). `None` for anything that is not a
/// refusal. The 429 precedence mirrors the [`RetryStats`] subsets.
pub fn refusal_provenance(resp: &Response) -> Option<&'static str> {
    if is_edge_limited(resp) {
        Some("edge")
    } else if is_fault_limited(resp) {
        Some("fault")
    } else if is_throttled(resp) {
        Some("throttle")
    } else if is_shed(resp) {
        Some("shed")
    } else if resp.status.code() == 429 && resp.headers.contains(H_ACCOUNT_SUSPENDED) {
        Some("suspension")
    } else {
        None
    }
}

fn retry_after_ms(resp: &Response) -> Option<u64> {
    resp.headers
        .get(H_RETRY_AFTER)
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|secs| secs * 1_000)
}

/// Classify a response for retry purposes.
pub fn classify(resp: &Response) -> ErrorClass {
    if resp.headers.get(H_SIMULATED_FAULT) == Some("reset") {
        // Mid-body connection reset: the body is truncated garbage.
        return ErrorClass::Retryable { retry_after_ms: None };
    }
    match resp.status.code() {
        429 if resp.headers.contains(H_ACCOUNT_SUSPENDED) => ErrorClass::Fatal,
        429 => ErrorClass::Retryable { retry_after_ms: retry_after_ms(resp) },
        // A shed 503 names its own floor; a fault 5xx does not.
        503 if is_shed(resp) => ErrorClass::Retryable { retry_after_ms: retry_after_ms(resp) },
        500 | 503 => ErrorClass::Retryable { retry_after_ms: None },
        401 if resp.headers.contains(H_SESSION_EXPIRED) => ErrorClass::Fatal,
        _ => ErrorClass::Terminal,
    }
}

/// Whether a transport-level error is worth retrying at all. (Even then,
/// only idempotent requests are actually resent.)
pub fn retryable_transport_error(e: &HttpError) -> bool {
    matches!(e, HttpError::Io(_) | HttpError::UnexpectedEof | HttpError::Malformed(_))
}

/// Retry budget and backoff shape for one [`ResilientExchange`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// First backoff ceiling in virtual ms; doubles per retry.
    pub base_backoff_ms: u64,
    /// Backoff ceiling cap.
    pub max_backoff_ms: u64,
    /// Per-request deadline in virtual ms (0 = none). Counted from the
    /// first attempt; a retry that would wait past it fails with
    /// [`HttpError::DeadlineExceeded`] instead.
    pub deadline_ms: u64,
    /// Seed for the jitter stream (deterministic per-exchange).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff_ms: 250,
            max_backoff_ms: 8_000,
            deadline_ms: 120_000,
            jitter_seed: 0x9d5f_2013,
        }
    }
}

impl RetryPolicy {
    /// Default shape with an explicit jitter seed.
    pub fn seeded(seed: u64) -> RetryPolicy {
        RetryPolicy { jitter_seed: seed, ..RetryPolicy::default() }
    }
}

/// Counters shared between a [`ResilientExchange`] and whoever accounts
/// for effort (the crawler folds these into its request totals).
#[derive(Debug, Default)]
pub struct RetryStats {
    /// Requests resent after a retryable failure.
    pub retries: AtomicU64,
    /// 429 responses seen (excluding suspensions).
    pub rate_limited: AtomicU64,
    /// Fault 500/503 responses seen (excluding sheds).
    pub server_errors: AtomicU64,
    /// Load-shed 503s seen (`Retry-After` present): the server's edge
    /// turning work away, distinct from fault 5xxs.
    pub sheds: AtomicU64,
    /// Mid-body connection resets (marker or transport-level).
    pub resets: AtomicU64,
    /// Requests abandoned at their virtual deadline.
    pub deadlines_exceeded: AtomicU64,
    /// Virtual milliseconds spent waiting in backoff.
    pub backoff_virtual_ms: AtomicU64,
    /// 429s stamped `x-edge-limited` (edge token bucket; a subset of
    /// `rate_limited` — provenance ledger, not a new total).
    pub edge_limited: AtomicU64,
    /// 429s stamped `x-fault-injected` (chaos engine; subset of
    /// `rate_limited`).
    pub fault_rate_limited: AtomicU64,
    /// 429s stamped `x-throttled` (sybil-detector throttle; subset of
    /// `rate_limited`).
    pub throttled: AtomicU64,
}

/// Plain-data copy of [`RetryStats`] for restore across a process
/// restart; the crawl journal stores it as it is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryStatsSnapshot {
    pub retries: u64,
    pub rate_limited: u64,
    pub server_errors: u64,
    pub sheds: u64,
    pub resets: u64,
    pub deadlines_exceeded: u64,
    pub backoff_virtual_ms: u64,
    pub edge_limited: u64,
    pub fault_rate_limited: u64,
    pub throttled: u64,
}

impl RetryStats {
    /// Export every counter (for the crash journal).
    pub fn export(&self) -> RetryStatsSnapshot {
        RetryStatsSnapshot {
            retries: self.retries(),
            rate_limited: self.rate_limited(),
            server_errors: self.server_errors(),
            sheds: self.sheds(),
            resets: self.resets(),
            deadlines_exceeded: self.deadlines_exceeded(),
            backoff_virtual_ms: self.backoff_virtual_ms(),
            edge_limited: self.edge_limited(),
            fault_rate_limited: self.fault_rate_limited(),
            throttled: self.throttled(),
        }
    }

    /// Overwrite every counter from a journaled snapshot (resume path).
    pub fn restore(&self, snap: &RetryStatsSnapshot) {
        self.retries.store(snap.retries, Ordering::Relaxed);
        self.rate_limited.store(snap.rate_limited, Ordering::Relaxed);
        self.server_errors.store(snap.server_errors, Ordering::Relaxed);
        self.sheds.store(snap.sheds, Ordering::Relaxed);
        self.resets.store(snap.resets, Ordering::Relaxed);
        self.deadlines_exceeded.store(snap.deadlines_exceeded, Ordering::Relaxed);
        self.backoff_virtual_ms.store(snap.backoff_virtual_ms, Ordering::Relaxed);
        self.edge_limited.store(snap.edge_limited, Ordering::Relaxed);
        self.fault_rate_limited.store(snap.fault_rate_limited, Ordering::Relaxed);
        self.throttled.store(snap.throttled, Ordering::Relaxed);
    }

    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.load(Ordering::Relaxed)
    }

    pub fn server_errors(&self) -> u64 {
        self.server_errors.load(Ordering::Relaxed)
    }

    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    pub fn resets(&self) -> u64 {
        self.resets.load(Ordering::Relaxed)
    }

    pub fn deadlines_exceeded(&self) -> u64 {
        self.deadlines_exceeded.load(Ordering::Relaxed)
    }

    pub fn backoff_virtual_ms(&self) -> u64 {
        self.backoff_virtual_ms.load(Ordering::Relaxed)
    }

    pub fn edge_limited(&self) -> u64 {
        self.edge_limited.load(Ordering::Relaxed)
    }

    pub fn fault_rate_limited(&self) -> u64 {
        self.fault_rate_limited.load(Ordering::Relaxed)
    }

    pub fn throttled(&self) -> u64 {
        self.throttled.load(Ordering::Relaxed)
    }
}

/// An [`Exchange`] wrapper adding deadlines, classification-driven
/// retries and jittered backoff in virtual time.
pub struct ResilientExchange<E> {
    inner: E,
    policy: RetryPolicy,
    clock: Arc<VirtualClock>,
    stats: Arc<RetryStats>,
    jitter_state: u64,
    tracer: Option<Arc<FlightRecorder>>,
    /// `Some(next)`: stamp [`H_ATTEMPT_SEQ`] on every attempt.
    attempt_seq: Option<u64>,
}

impl<E: Exchange> ResilientExchange<E> {
    pub fn new(inner: E, policy: RetryPolicy, clock: Arc<VirtualClock>) -> ResilientExchange<E> {
        Self::with_stats(inner, policy, clock, Arc::new(RetryStats::default()))
    }

    /// Like [`new`](Self::new) but folding retries into a shared stats
    /// block — one handle for a whole fleet of account exchanges.
    pub fn with_stats(
        inner: E,
        policy: RetryPolicy,
        clock: Arc<VirtualClock>,
        stats: Arc<RetryStats>,
    ) -> ResilientExchange<E> {
        let jitter_state = policy.jitter_seed;
        ResilientExchange {
            inner,
            policy,
            clock,
            stats,
            jitter_state,
            tracer: None,
            attempt_seq: None,
        }
    }

    /// Stamp a monotone [`H_ATTEMPT_SEQ`] header on every attempt,
    /// switching the platform's fault engine and account bookkeeping
    /// into replay-tolerant sequence mode (see the header docs). Both
    /// the baseline and any killed-and-resumed run must use this.
    pub fn with_attempt_seq(mut self) -> ResilientExchange<E> {
        self.attempt_seq = Some(0);
        self
    }

    /// Record one span per attempt into `tracer` for requests carrying
    /// an [`H_TRACE_ID`] header (begin/end virtual time, status,
    /// classification outcome and refusal provenance).
    pub fn with_tracer(mut self, tracer: Arc<FlightRecorder>) -> ResilientExchange<E> {
        self.tracer = Some(tracer);
        self
    }

    /// Shared retry counters (clone the Arc to account elsewhere).
    pub fn stats(&self) -> Arc<RetryStats> {
        Arc::clone(&self.stats)
    }

    /// The virtual clock this exchange waits against.
    pub fn clock(&self) -> Arc<VirtualClock> {
        Arc::clone(&self.clock)
    }

    fn next_jitter(&mut self, ceiling: u64) -> u64 {
        // The splitmix64 stream: cheap, seedable, good enough for jitter.
        let z = splitmix64(self.jitter_state);
        self.jitter_state = self.jitter_state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        // Full jitter in [1, ceiling]: always advances the clock so a
        // retry storm cannot happen "instantaneously".
        1 + z % ceiling.max(1)
    }

    /// Backoff for the n-th retry (1-based): full jitter under an
    /// exponentially growing ceiling, floored by any `Retry-After`.
    fn backoff_ms(&mut self, retry: u32, retry_after_ms: Option<u64>) -> u64 {
        let shift = (retry - 1).min(20);
        let ceiling =
            self.policy.base_backoff_ms.saturating_mul(1 << shift).min(self.policy.max_backoff_ms);
        let jittered = self.next_jitter(ceiling);
        jittered.max(retry_after_ms.unwrap_or(0))
    }

    /// Absorb the response's simulated latency into the virtual timeline.
    fn observe_latency(&self, resp: &Response) {
        if let Some(ms) = resp.headers.get(H_VIRTUAL_LATENCY_MS).and_then(|v| v.parse().ok()) {
            self.clock.advance_ms(ms);
        }
    }
}

impl<E: Exchange> Exchange for ResilientExchange<E> {
    fn exchange(&mut self, req: Request) -> Result<Response> {
        let start_ms = self.clock.now_ms();
        let idempotent = matches!(req.method, Method::Get | Method::Head);
        let trace = self
            .tracer
            .as_ref()
            .filter(|t| t.is_enabled())
            .cloned()
            .zip(req.headers.get(H_TRACE_ID).and_then(TraceCtx::parse));
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let begin_ms = self.clock.now_ms();
            let mut req_attempt = req.clone();
            // A stamped request's retries arrive at their own time: the
            // stamp moves forward by the backoff and latency absorbed
            // since the first attempt. First attempts go out untouched.
            let stamp = (attempt > 1)
                .then(|| req.headers.get(H_VIRTUAL_NOW).and_then(|v| v.parse::<u64>().ok()))
                .flatten();
            if let Some(stamp) = stamp {
                req_attempt.headers.set(H_VIRTUAL_NOW, (stamp + begin_ms - start_ms).to_string());
            }
            if let Some(seq) = self.attempt_seq.as_mut() {
                req_attempt.headers.set(H_ATTEMPT_SEQ, seq.to_string());
                *seq += 1;
            }
            let outcome = self.inner.exchange(req_attempt);
            if let Ok(resp) = &outcome {
                self.observe_latency(resp);
            }
            if let Some((tracer, ctx)) = &trace {
                let (status, verdict, provenance, captcha_ms) = match &outcome {
                    Ok(resp) => (
                        resp.status.code(),
                        match classify(resp) {
                            ErrorClass::Terminal => "ok",
                            ErrorClass::Fatal => "fatal",
                            ErrorClass::Retryable { .. } => "retryable",
                        },
                        refusal_provenance(resp).unwrap_or(""),
                        captcha_delay_ms(resp).unwrap_or(0),
                    ),
                    Err(e) if retryable_transport_error(e) => (0, "transport", "", 0),
                    Err(_) => (0, "error", "", 0),
                };
                tracer.record(SpanRecord {
                    trace_id: ctx.trace_id,
                    span_id: ctx.span(SLOT_ATTEMPT_BASE + u64::from(attempt)),
                    parent_id: ctx.root_span(),
                    lane: ctx.lane,
                    ordinal: ctx.ordinal,
                    name: "attempt".to_string(),
                    begin_ms,
                    end_ms: self.clock.now_ms(),
                    status,
                    outcome: verdict.to_string(),
                    provenance: provenance.to_string(),
                    captcha_ms,
                });
            }
            let retry_after_ms = match outcome {
                Ok(resp) => {
                    match classify(&resp) {
                        ErrorClass::Terminal | ErrorClass::Fatal => return Ok(resp),
                        ErrorClass::Retryable { retry_after_ms } => {
                            match resp.status.code() {
                                429 => {
                                    // Provenance ledger: which of the
                                    // three limiters said no.
                                    if is_edge_limited(&resp) {
                                        self.stats.edge_limited.fetch_add(1, Ordering::Relaxed);
                                    } else if is_fault_limited(&resp) {
                                        self.stats
                                            .fault_rate_limited
                                            .fetch_add(1, Ordering::Relaxed);
                                    } else if is_throttled(&resp) {
                                        self.stats.throttled.fetch_add(1, Ordering::Relaxed);
                                    }
                                    self.stats.rate_limited.fetch_add(1, Ordering::Relaxed)
                                }
                                503 if is_shed(&resp) => {
                                    self.stats.sheds.fetch_add(1, Ordering::Relaxed)
                                }
                                500 | 503 => {
                                    self.stats.server_errors.fetch_add(1, Ordering::Relaxed)
                                }
                                _ => self.stats.resets.fetch_add(1, Ordering::Relaxed),
                            };
                            if attempt >= self.policy.max_attempts {
                                // Out of budget: surface the last
                                // response so the caller sees *why*.
                                return Ok(resp);
                            }
                            retry_after_ms
                        }
                    }
                }
                Err(e) if retryable_transport_error(&e) && idempotent => {
                    self.stats.resets.fetch_add(1, Ordering::Relaxed);
                    if attempt >= self.policy.max_attempts {
                        return Err(e);
                    }
                    None
                }
                Err(e) => return Err(e),
            };
            let wait_ms = self.backoff_ms(attempt, retry_after_ms);
            if self.policy.deadline_ms > 0 {
                let elapsed = self.clock.now_ms().saturating_sub(start_ms);
                if elapsed + wait_ms > self.policy.deadline_ms {
                    self.stats.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
                    return Err(HttpError::DeadlineExceeded);
                }
            }
            self.clock.advance_ms(wait_ms);
            self.stats.backoff_virtual_ms.fetch_add(wait_ms, Ordering::Relaxed);
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn clear_session(&mut self) {
        self.inner.clear_session();
    }

    fn transport_state(&self) -> crate::client::TransportState {
        let mut state = self.inner.transport_state();
        state.attempt_seq = self.attempt_seq.unwrap_or(0);
        state.jitter_state = self.jitter_state;
        state
    }

    fn restore_transport_state(&mut self, state: &crate::client::TransportState) {
        self.inner.restore_transport_state(state);
        if self.attempt_seq.is_some() {
            self.attempt_seq = Some(state.attempt_seq);
        }
        self.jitter_state = state.jitter_state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Status;
    use std::collections::VecDeque;

    /// Scripted exchange: pops pre-baked outcomes, records requests.
    struct Script {
        outcomes: VecDeque<Result<Response>>,
        seen: Vec<Request>,
    }

    impl Script {
        fn new(outcomes: Vec<Result<Response>>) -> Script {
            Script { outcomes: outcomes.into(), seen: Vec::new() }
        }
    }

    impl Exchange for Script {
        fn exchange(&mut self, req: Request) -> Result<Response> {
            self.seen.push(req);
            self.outcomes.pop_front().unwrap_or_else(|| Ok(Response::text("default")))
        }

        fn clear_session(&mut self) {}
    }

    fn resilient(script: Script) -> ResilientExchange<Script> {
        ResilientExchange::new(script, RetryPolicy::seeded(7), VirtualClock::shared())
    }

    #[test]
    fn retries_transient_5xx_until_success() {
        let script = Script::new(vec![
            Ok(Response::error(Status::SERVICE_UNAVAILABLE, "warming up")),
            Ok(Response::error(Status::INTERNAL_SERVER_ERROR, "oops")),
            Ok(Response::text("fine")),
        ]);
        let mut ex = resilient(script);
        let resp = ex.exchange(Request::get("/profile/u1")).unwrap();
        assert_eq!(resp.body_string(), "fine");
        assert_eq!(ex.stats().retries(), 2);
        assert_eq!(ex.stats().server_errors(), 2);
        assert!(ex.clock().now_ms() > 0, "backoff must advance virtual time");
    }

    #[test]
    fn honors_retry_after_floor() {
        let rate_limited =
            Response::error(Status::TOO_MANY_REQUESTS, "slow down").header(H_RETRY_AFTER, "30");
        let script = Script::new(vec![Ok(rate_limited), Ok(Response::text("ok"))]);
        let mut ex = resilient(script);
        ex.exchange(Request::get("/x")).unwrap();
        assert!(ex.clock().now_ms() >= 30_000, "waited {} ms", ex.clock().now_ms());
        assert_eq!(ex.stats().rate_limited(), 1);
    }

    #[test]
    fn retry_carries_the_later_virtual_stamp() {
        let rate_limited =
            Response::error(Status::TOO_MANY_REQUESTS, "slow down").header(H_RETRY_AFTER, "30");
        let script = Script::new(vec![Ok(rate_limited), Ok(Response::text("ok"))]);
        let mut ex = resilient(script);
        ex.exchange(Request::get("/x").header(H_VIRTUAL_NOW, "1000")).unwrap();
        let waited = ex.clock().now_ms();
        assert!(waited >= 30_000);
        let stamps: Vec<&str> =
            ex.inner.seen.iter().map(|r| r.headers.get(H_VIRTUAL_NOW).unwrap()).collect();
        assert_eq!(stamps, ["1000".to_string(), (1_000 + waited).to_string()]);
        // Unstamped requests stay unstamped on retry.
        let script = Script::new(vec![Ok(Response::error(Status::SERVICE_UNAVAILABLE, "x"))]);
        let mut ex = resilient(script);
        ex.exchange(Request::get("/x")).unwrap();
        assert!(ex.inner.seen.iter().all(|r| !r.headers.contains(H_VIRTUAL_NOW)));
    }

    #[test]
    fn exhausted_budget_returns_last_response() {
        let outcomes = (0..9)
            .map(|_| Ok(Response::error(Status::SERVICE_UNAVAILABLE, "down")))
            .collect::<Vec<_>>();
        let mut ex = resilient(Script::new(outcomes));
        let resp = ex.exchange(Request::get("/x")).unwrap();
        assert_eq!(resp.status, Status::SERVICE_UNAVAILABLE);
        assert_eq!(ex.stats().retries(), RetryPolicy::default().max_attempts as u64 - 1);
    }

    #[test]
    fn suspension_is_fatal_not_retried() {
        let suspended = Response::error(Status::TOO_MANY_REQUESTS, "account suspended")
            .header(H_ACCOUNT_SUSPENDED, "1");
        let mut ex = resilient(Script::new(vec![Ok(suspended)]));
        let resp = ex.exchange(Request::get("/x")).unwrap();
        assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
        assert_eq!(ex.stats().retries(), 0, "suspension must bubble up for failover");
    }

    #[test]
    fn post_never_replayed_on_transport_error() {
        let script = Script::new(vec![Err(HttpError::UnexpectedEof), Ok(Response::text("late"))]);
        let mut ex = resilient(script);
        let err = ex.exchange(Request::post_form("/message/u9", &[("text", "hi")])).unwrap_err();
        assert!(matches!(err, HttpError::UnexpectedEof));
        assert_eq!(ex.inner.seen.len(), 1, "the POST must have been sent exactly once");
    }

    #[test]
    fn get_is_replayed_on_transport_error() {
        let script = Script::new(vec![Err(HttpError::UnexpectedEof), Ok(Response::text("ok"))]);
        let mut ex = resilient(script);
        assert_eq!(ex.exchange(Request::get("/x")).unwrap().body_string(), "ok");
        assert_eq!(ex.stats().resets(), 1);
    }

    #[test]
    fn reset_marker_is_retried_like_a_transport_reset() {
        let torn = Response::html("<html><p>torn of")
            .header(H_SIMULATED_FAULT, "reset")
            .header("Connection", "close");
        let script = Script::new(vec![Ok(torn), Ok(Response::html("<html>whole</html>"))]);
        let mut ex = resilient(script);
        let resp = ex.exchange(Request::get("/x")).unwrap();
        assert!(resp.body_string().contains("whole"));
        assert_eq!(ex.stats().resets(), 1);
    }

    #[test]
    fn shed_503_is_classified_and_counted_distinctly_from_fault_5xx() {
        let shed_resp = Response::error(Status::SERVICE_UNAVAILABLE, "server overloaded")
            .header(H_RETRY_AFTER, "2")
            .header("Connection", "close");
        let fault = Response::error(Status::SERVICE_UNAVAILABLE, "injected");
        assert!(is_shed(&shed_resp));
        assert!(!is_shed(&fault));
        // The shed names its own backoff floor.
        assert_eq!(classify(&shed_resp), ErrorClass::Retryable { retry_after_ms: Some(2_000) });
        assert_eq!(classify(&fault), ErrorClass::Retryable { retry_after_ms: None });

        let script = Script::new(vec![Ok(shed_resp), Ok(fault), Ok(Response::text("recovered"))]);
        let mut ex = resilient(script);
        let resp = ex.exchange(Request::get("/x")).unwrap();
        assert_eq!(resp.body_string(), "recovered");
        assert_eq!(ex.stats().sheds(), 1);
        assert_eq!(ex.stats().server_errors(), 1);
        assert!(ex.clock().now_ms() >= 2_000, "the shed's Retry-After floor was honored");
    }

    #[test]
    fn refusal_ledger_separates_429_provenance() {
        let edge = Response::error(Status::TOO_MANY_REQUESTS, "edge")
            .header(H_RETRY_AFTER, "1")
            .header(H_EDGE_LIMITED, "1");
        let fault = Response::error(Status::TOO_MANY_REQUESTS, "chaos")
            .header(H_RETRY_AFTER, "1")
            .header(H_FAULT_INJECTED, "1");
        let throttle = Response::error(Status::TOO_MANY_REQUESTS, "flagged")
            .header(H_RETRY_AFTER, "1")
            .header(H_THROTTLED, "1");
        let plain = Response::error(Status::TOO_MANY_REQUESTS, "unattributed");
        let policy = RetryPolicy { max_attempts: 10, ..RetryPolicy::seeded(7) };
        let mut ex = ResilientExchange::new(
            Script::new(vec![
                Ok(edge),
                Ok(fault),
                Ok(throttle),
                Ok(plain),
                Ok(Response::text("ok")),
            ]),
            policy,
            VirtualClock::shared(),
        );
        assert_eq!(ex.exchange(Request::get("/x")).unwrap().body_string(), "ok");
        assert_eq!(ex.stats().rate_limited(), 4, "every 429 still lands in the total");
        assert_eq!(ex.stats().edge_limited(), 1);
        assert_eq!(ex.stats().fault_rate_limited(), 1);
        assert_eq!(ex.stats().throttled(), 1);
    }

    #[test]
    fn captcha_header_parses_and_does_not_block() {
        let challenged = Response::html("<html>page</html>").header(H_CAPTCHA, "30000");
        assert_eq!(captcha_delay_ms(&challenged), Some(30_000));
        assert_eq!(classify(&challenged), ErrorClass::Terminal, "captcha rides a served page");
        assert_eq!(captcha_delay_ms(&Response::text("clean")), None);
    }

    #[test]
    fn deadline_bounds_total_virtual_wait() {
        let outcomes = (0..50)
            .map(|_| {
                Ok(Response::error(Status::TOO_MANY_REQUESTS, "x").header(H_RETRY_AFTER, "120"))
            })
            .collect::<Vec<_>>();
        let policy =
            RetryPolicy { deadline_ms: 100_000, max_attempts: 50, ..RetryPolicy::seeded(3) };
        let mut ex = ResilientExchange::new(Script::new(outcomes), policy, VirtualClock::shared());
        let err = ex.exchange(Request::get("/x")).unwrap_err();
        assert!(matches!(err, HttpError::DeadlineExceeded));
        assert_eq!(ex.stats().deadlines_exceeded(), 1);
        assert!(ex.clock().now_ms() <= 100_000);
    }

    #[test]
    fn virtual_latency_header_advances_clock() {
        let slow = Response::html("<html>slow</html>").header(H_VIRTUAL_LATENCY_MS, "750");
        let mut ex = resilient(Script::new(vec![Ok(slow)]));
        ex.exchange(Request::get("/x")).unwrap();
        assert_eq!(ex.clock().now_ms(), 750);
    }

    #[test]
    fn traced_request_records_one_span_per_attempt() {
        let tracer = Arc::new(FlightRecorder::new());
        tracer.enable(64);
        let edge = Response::error(Status::TOO_MANY_REQUESTS, "edge")
            .header(H_RETRY_AFTER, "1")
            .header(H_EDGE_LIMITED, "1");
        let script = Script::new(vec![Ok(edge), Ok(Response::text("ok"))]);
        let mut ex = ResilientExchange::new(script, RetryPolicy::seeded(7), VirtualClock::shared())
            .with_tracer(Arc::clone(&tracer));
        let ctx = TraceCtx::derive(hsp_obs::TRACE_SEED, 3, 9);
        let req = Request::get("/profile/u1").header(H_TRACE_ID, ctx.header_value());
        assert_eq!(ex.exchange(req).unwrap().body_string(), "ok");
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2, "one span per attempt");
        assert_eq!(spans[0].outcome, "retryable");
        assert_eq!(spans[0].provenance, "edge");
        assert_eq!(spans[0].status, 429);
        assert_eq!(spans[1].outcome, "ok");
        assert_eq!(spans[1].provenance, "");
        assert!(spans.iter().all(|s| s.lane == 3 && s.ordinal == 9));
        assert!(spans.iter().all(|s| s.parent_id == ctx.root_span()));
        assert!(spans[1].begin_ms >= spans[0].end_ms, "backoff separates the attempts");
    }

    #[test]
    fn untraced_request_records_nothing() {
        let tracer = Arc::new(FlightRecorder::new());
        tracer.enable(64);
        let mut ex = ResilientExchange::new(
            Script::new(vec![Ok(Response::text("ok"))]),
            RetryPolicy::seeded(7),
            VirtualClock::shared(),
        )
        .with_tracer(Arc::clone(&tracer));
        ex.exchange(Request::get("/x")).unwrap();
        assert!(tracer.is_empty(), "no x-trace-id header, no spans");
    }

    #[test]
    fn same_seed_same_virtual_schedule() {
        let run = |seed: u64| {
            let outcomes = (0..4)
                .map(|_| Ok(Response::error(Status::SERVICE_UNAVAILABLE, "down")))
                .chain(std::iter::once(Ok(Response::text("ok"))))
                .collect::<Vec<_>>();
            let mut ex = ResilientExchange::new(
                Script::new(outcomes),
                RetryPolicy::seeded(seed),
                VirtualClock::shared(),
            );
            ex.exchange(Request::get("/x")).unwrap();
            ex.clock().now_ms()
        };
        assert_eq!(run(42), run(42), "same seed must give a bit-identical schedule");
        assert_ne!(run(42), run(43), "different seeds should jitter differently");
    }
}
