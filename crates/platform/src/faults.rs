//! Seeded, deterministic fault injection for the simulated OSN.
//!
//! The paper's crawl ran against a *hostile* Facebook: accounts were
//! rate-limited and suspended, pages arrived slowly or truncated,
//! connections dropped mid-body (§3.2, §4.5). This module recreates
//! that hostility on demand. A [`FaultPlan`] declares per-mille
//! probabilities for each fault class; a [`FaultEngine`] rolls them
//! from *per-principal* SplitMix64 streams: each attacker account (as
//! identified by its `sid` cookie) draws from its own seeded stream, in
//! its own request order. An experiment's fault schedule is therefore a
//! pure function of (seed, per-account request sequences) — bit-identical
//! across runs, across the TCP and in-process transports, and across
//! any interleaving of concurrent accounts. A parallel crawler that
//! preserves each account's request order sees exactly the faults the
//! sequential crawler saw, no matter how the threads raced.
//!
//! Faults are signalled in-band through response status codes and the
//! shared header constants in `hsp_http::resilient`, never through
//! transport-specific behaviour, which is what keeps the two transports
//! equivalent. Mid-body resets, for instance, are a truncated body plus
//! `x-simulated-fault: reset` + `Connection: close`, which the client
//! layer converts back into a retryable transport-style failure.
//!
//! Every injection lands in the shared registry as
//! `platform_fault_injected_total{kind="..."}`.

use hsp_http::resilient::{
    H_ATTEMPT_SEQ, H_FAULT_INJECTED, H_RETRY_AFTER, H_SIMULATED_FAULT, H_VIRTUAL_LATENCY_MS,
};
use hsp_http::{request_cookie, Request, Response, Status};
use hsp_obs::trace::{fnv1a_chain, splitmix64, FNV_OFFSET};
use hsp_obs::Registry;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// Declarative chaos schedule. Probabilities are per-mille (0–1000)
/// per eligible request; `0` disables that fault class. The all-zero
/// [`Default`] plan injects nothing, so ordinary experiments are
/// untouched; [`FaultPlan::chaos`] is the canonical hostile profile
/// used by the chaos tests and sweeps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Master switch; `false` short-circuits every roll.
    pub enabled: bool,
    /// Seed of the fault RNG stream.
    pub seed: u64,
    /// 429 + `Retry-After` before the handler runs.
    pub rate_limit_per_mille: u32,
    /// `Retry-After` value handed out with injected 429s, in seconds.
    pub retry_after_secs: u64,
    /// Transient 500/503 before the handler runs.
    pub server_error_per_mille: u32,
    /// Virtual-latency tag on a response (client advances its clock).
    pub latency_per_mille: u32,
    pub latency_min_ms: u64,
    pub latency_max_ms: u64,
    /// Mid-body connection reset: truncated body + reset marker +
    /// `Connection: close`.
    pub reset_per_mille: u32,
    /// Silently truncated HTML (no marker — the crawler must notice the
    /// missing `</html>` itself).
    pub truncate_per_mille: u32,
    /// Session evicted server-side; request answered 401 + expiry marker.
    pub session_expiry_per_mille: u32,
    /// Scripted escalation: account `i` is force-suspended once it has
    /// served `suspend_account_after[i]` requests (0 = never). This is
    /// the "one mid-crawl suspension" that exercises the paper's
    /// 2→4→8 account failover.
    pub suspend_account_after: Vec<u64>,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            enabled: false,
            seed: 0xFA_2013,
            rate_limit_per_mille: 0,
            retry_after_secs: 15,
            server_error_per_mille: 0,
            latency_per_mille: 0,
            latency_min_ms: 50,
            latency_max_ms: 500,
            reset_per_mille: 0,
            truncate_per_mille: 0,
            session_expiry_per_mille: 0,
            suspend_account_after: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// The canonical hostile profile: sporadic 429s and 5xxs, simulated
    /// latency, occasional resets/truncations/session expiries, and one
    /// scripted mid-crawl suspension of the first account.
    pub fn chaos() -> FaultPlan {
        FaultPlan {
            enabled: true,
            rate_limit_per_mille: 30,
            server_error_per_mille: 20,
            latency_per_mille: 100,
            reset_per_mille: 10,
            truncate_per_mille: 15,
            session_expiry_per_mille: 5,
            // Fires well after the seed phase (~20 requests) but in the
            // middle of an HS1-scale profile/friends crawl (~750 served
            // requests per account), forcing a real mid-crawl failover.
            suspend_account_after: vec![500],
            ..FaultPlan::default()
        }
    }

    /// Scale every probabilistic fault class by `factor` (1.0 = as-is),
    /// clamped to valid per-mille. Used by the chaos intensity sweep.
    pub fn scaled(&self, factor: f64) -> FaultPlan {
        let scale = |pm: u32| ((pm as f64 * factor).round() as u32).min(1_000);
        FaultPlan {
            rate_limit_per_mille: scale(self.rate_limit_per_mille),
            server_error_per_mille: scale(self.server_error_per_mille),
            latency_per_mille: scale(self.latency_per_mille),
            reset_per_mille: scale(self.reset_per_mille),
            truncate_per_mille: scale(self.truncate_per_mille),
            session_expiry_per_mille: scale(self.session_expiry_per_mille),
            ..self.clone()
        }
    }
}

/// Attempt sequence number carried by the request, if the client opted
/// into replay-tolerant sequence mode (`x-attempt-seq`).
pub(crate) fn attempt_seq(req: &Request) -> Option<u64> {
    req.headers.get(H_ATTEMPT_SEQ).and_then(|v| v.trim().parse::<u64>().ok())
}

// Distinct draw-site tags for sequence mode: each decision a request
// can trigger draws from its own `(principal, seq, site)` stream, so
// the schedule is a pure function of the request itself — independent
// of arrival order, and therefore identical between an uninterrupted
// run and a killed-and-resumed one replaying the same requests.
const SITE_RATE: u64 = 1;
const SITE_SERVER: u64 = 2;
const SITE_SERVER_KIND: u64 = 3;
const SITE_EXPIRY: u64 = 4;
const SITE_LATENCY: u64 = 5;
const SITE_LATENCY_MS: u64 = 6;
const SITE_RESET: u64 = 7;
const SITE_TRUNCATE: u64 = 8;
const SITE_TRUNCATE_CUT: u64 = 9;

/// The fault stream a request draws from. Authenticated traffic is
/// keyed by the account index baked into the `sid` cookie
/// (`sid-{index}-…`), so every account has its own deterministic fault
/// schedule regardless of how concurrent requests interleave.
/// Signup/login traffic (no session yet) is keyed by the claimed
/// username; anonymous traffic shares stream 0.
fn principal_key(req: &Request) -> u64 {
    if let Some(sid) = request_cookie(req, "sid") {
        if let Some(idx) = sid
            .strip_prefix("sid-")
            .and_then(|rest| rest.split('-').next())
            .and_then(|i| i.parse::<u64>().ok())
        {
            return 1 + idx;
        }
    }
    if let Some(user) = req.form_param("user") {
        // Pre-session (signup/login) traffic is keyed by username.
        return 0x8000_0000_0000_0000 | fnv1a_chain(FNV_OFFSET, user.as_bytes());
    }
    0
}

/// Rolls a [`FaultPlan`] against live traffic. One counter-based
/// SplitMix64 stream per principal (the session's account index, or
/// the username of pre-session traffic); each
/// decision consumes the next value of the requester's stream, so the
/// schedule an account experiences depends only on that account's own
/// request order — never on how other accounts' requests interleave.
pub struct FaultEngine {
    plan: FaultPlan,
    /// Per-principal draw counters; the stream itself is stateless
    /// (`splitmix64(seed ⊕ key-mix ⊕ counter-mix)`).
    draws: Mutex<HashMap<u64, u64>>,
    obs: Arc<Registry>,
}

impl FaultEngine {
    pub fn new(plan: FaultPlan, obs: Arc<Registry>) -> Arc<FaultEngine> {
        Arc::new(FaultEngine { plan, draws: Mutex::new(HashMap::new()), obs })
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn record(&self, kind: &str) {
        self.obs.counter_with("platform_fault_injected_total", &[("kind", kind)]).inc();
    }

    /// Next value of `key`'s stream.
    fn draw(&self, key: u64) -> u64 {
        let mut draws = self.draws.lock();
        let counter = draws.entry(key).or_insert(0);
        let n = *counter;
        *counter += 1;
        splitmix64(self.plan.seed ^ splitmix64(key) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// A draw for one decision: in sequence mode (`seq` present) the
    /// value is a pure function of `(principal, seq, site)` — stateless
    /// and replay-stable; otherwise it consumes the principal's
    /// arrival-order counter stream exactly as before.
    fn draw_at(&self, key: u64, seq: Option<u64>, site: u64) -> u64 {
        match seq {
            Some(s) => splitmix64(
                self.plan.seed
                    ^ splitmix64(key)
                    ^ splitmix64(s.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                    ^ site.wrapping_mul(0xbf58_476d_1ce4_e5b9),
            ),
            None => self.draw(key),
        }
    }

    fn roll(&self, key: u64, seq: Option<u64>, site: u64, per_mille: u32) -> bool {
        per_mille > 0 && ((self.draw_at(key, seq, site) % 1_000) as u32) < per_mille
    }

    /// Uniform draw in `lo..=hi`.
    fn range(&self, key: u64, seq: Option<u64>, site: u64, lo: u64, hi: u64) -> u64 {
        lo + self.draw_at(key, seq, site) % (hi - lo + 1)
    }

    /// Pre-handler faults: the request is answered by the fault layer
    /// and never reaches the application (so it does not count against
    /// the account's request budget — the "server" failed, the account
    /// did nothing suspicious).
    pub fn pre(&self, req: &Request) -> Option<Response> {
        if !self.plan.enabled {
            return None;
        }
        let key = principal_key(req);
        let seq = attempt_seq(req);
        if self.roll(key, seq, SITE_RATE, self.plan.rate_limit_per_mille) {
            self.record("rate_limit");
            return Some(
                Response::error(Status::TOO_MANY_REQUESTS, "rate limit exceeded")
                    .header(H_RETRY_AFTER, self.plan.retry_after_secs.to_string())
                    .header(H_FAULT_INJECTED, "1"),
            );
        }
        if self.roll(key, seq, SITE_SERVER, self.plan.server_error_per_mille) {
            self.record("server_error");
            let status = if self.draw_at(key, seq, SITE_SERVER_KIND) & 1 == 0 {
                Status::INTERNAL_SERVER_ERROR
            } else {
                Status::SERVICE_UNAVAILABLE
            };
            return Some(Response::error(status, "internal error"));
        }
        None
    }

    /// Whether to expire the session carried by the current request.
    /// Called once per authenticated request, in that account's own
    /// request order.
    pub fn expire_session_now(&self, req: &Request) -> bool {
        if !self.plan.enabled
            || !self.roll(
                principal_key(req),
                attempt_seq(req),
                SITE_EXPIRY,
                self.plan.session_expiry_per_mille,
            )
        {
            return false;
        }
        self.record("session_expiry");
        true
    }

    /// Scripted escalation check, given the account's served-request
    /// count. The caller force-suspends on `true`.
    pub fn should_force_suspend(&self, account_index: usize, requests_served: u64) -> bool {
        if !self.plan.enabled {
            return false;
        }
        let hit = self
            .plan
            .suspend_account_after
            .get(account_index)
            .is_some_and(|&after| after > 0 && requests_served >= after);
        if hit {
            self.record("forced_suspension");
        }
        hit
    }

    /// Post-handler faults: mutate a successful response on its way out
    /// (latency tag, silent truncation, mid-body reset). Draws from the
    /// *requester's* stream, so concurrent accounts cannot perturb each
    /// other's schedules.
    pub fn post(&self, req: &Request, resp: Response) -> Response {
        if !self.plan.enabled {
            return resp;
        }
        let key = principal_key(req);
        let seq = attempt_seq(req);
        let mut resp = resp;
        if self.roll(key, seq, SITE_LATENCY, self.plan.latency_per_mille) {
            self.record("latency");
            let ms = self.range(
                key,
                seq,
                SITE_LATENCY_MS,
                self.plan.latency_min_ms,
                self.plan.latency_max_ms,
            );
            resp = resp.header(H_VIRTUAL_LATENCY_MS, ms.to_string());
        }
        let is_html = resp.status == Status::OK
            && resp.headers.get("content-type").is_some_and(|ct| ct.contains("text/html"));
        if is_html && resp.body.len() > 64 {
            if self.roll(key, seq, SITE_RESET, self.plan.reset_per_mille) {
                self.record("reset");
                return self
                    .truncated(key, seq, resp)
                    .header(H_SIMULATED_FAULT, "reset")
                    .header("Connection", "close");
            }
            if self.roll(key, seq, SITE_TRUNCATE, self.plan.truncate_per_mille) {
                self.record("truncate");
                return self.truncated(key, seq, resp);
            }
        }
        resp
    }

    /// Cut the body at a random interior point (always before the
    /// closing `</html>`, so truncation is detectable).
    fn truncated(&self, key: u64, seq: Option<u64>, mut resp: Response) -> Response {
        let len = resp.body.len();
        let cut =
            (self.range(key, seq, SITE_TRUNCATE_CUT, len as u64 / 10, len as u64 * 9 / 10 - 1))
                as usize;
        resp.body = bytes::Bytes::copy_from_slice(&resp.body[..cut]);
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_http::resilient::{classify, ErrorClass};

    fn engine(plan: FaultPlan) -> Arc<FaultEngine> {
        FaultEngine::new(plan, Registry::shared())
    }

    fn page() -> Response {
        Response::html(format!("<!DOCTYPE html><html><body>{}</body></html>", "x".repeat(400)))
    }

    #[test]
    fn disabled_plan_is_a_no_op() {
        let eng = engine(FaultPlan::default());
        let req = Request::get("/profile/u1");
        assert!(eng.pre(&req).is_none());
        assert!(!eng.expire_session_now(&req));
        assert!(!eng.should_force_suspend(0, u64::MAX));
        let body = page().body;
        assert_eq!(eng.post(&req, page()).body, body);
    }

    #[test]
    fn chaos_plan_injects_each_class_deterministically() {
        let run = |seed: u64| {
            let obs = Registry::shared();
            let eng = FaultEngine::new(FaultPlan { seed, ..FaultPlan::chaos() }, Arc::clone(&obs));
            let mut outcomes = Vec::new();
            for i in 0..2_000 {
                let req = Request::get(format!("/profile/u{i}"));
                match eng.pre(&req) {
                    Some(resp) => outcomes.push(resp.status.code()),
                    None => {
                        let resp = eng.post(&req, page());
                        outcomes.push(resp.status.code());
                        outcomes.push(resp.body.len() as u16);
                    }
                }
            }
            let snap = obs.snapshot();
            (outcomes, snap.counters)
        };
        let (a_out, a_counts) = run(1);
        let (b_out, b_counts) = run(1);
        assert_eq!(a_out, b_out, "same seed must replay the same fault schedule");
        assert_eq!(a_counts, b_counts);
        for kind in ["rate_limit", "server_error", "latency", "truncate"] {
            let key = format!("platform_fault_injected_total{{kind=\"{kind}\"}}");
            assert!(a_counts.get(&key).copied().unwrap_or(0) > 0, "no {kind} in 2000 requests");
        }
        let (c_out, _) = run(2);
        assert_ne!(a_out, c_out, "different seeds should differ");
    }

    #[test]
    fn fault_streams_are_independent_per_account() {
        // Each account's fault schedule must depend only on its own
        // request order, never on how other accounts interleave — the
        // property the parallel scheduler's determinism rests on.
        let outcomes_for = |interleave: &[usize]| {
            let eng = engine(FaultPlan::chaos());
            let mut per: [Vec<u16>; 2] = [Vec::new(), Vec::new()];
            for &acct in interleave {
                let req = Request::get("/profile/u1")
                    .header("Cookie", format!("sid=sid-{acct}-00000000"));
                match eng.pre(&req) {
                    Some(resp) => per[acct].push(resp.status.code()),
                    None => {
                        let resp = eng.post(&req, page());
                        per[acct].push(resp.status.code());
                        per[acct].push(resp.body.len() as u16);
                    }
                }
            }
            per
        };
        let round_robin: Vec<usize> = (0..400).map(|i| i % 2).collect();
        let blocked: Vec<usize> =
            std::iter::repeat_n(0, 200).chain(std::iter::repeat_n(1, 200)).collect();
        assert_eq!(outcomes_for(&round_robin), outcomes_for(&blocked));
    }

    #[test]
    fn injected_rate_limit_is_retryable_with_floor() {
        let plan = FaultPlan { rate_limit_per_mille: 1_000, ..FaultPlan::chaos() };
        let eng = engine(plan);
        let resp = eng.pre(&Request::get("/x")).expect("certain fault");
        assert_eq!(resp.status, Status::TOO_MANY_REQUESTS);
        match classify(&resp) {
            ErrorClass::Retryable { retry_after_ms } => {
                assert_eq!(retry_after_ms, Some(15_000));
            }
            other => panic!("expected retryable, got {other:?}"),
        }
    }

    #[test]
    fn truncation_cuts_before_closing_tag() {
        let plan = FaultPlan {
            truncate_per_mille: 1_000,
            reset_per_mille: 0,
            latency_per_mille: 0,
            ..FaultPlan::chaos()
        };
        let eng = engine(plan);
        let req = Request::get("/profile/u1");
        for _ in 0..50 {
            let resp = eng.post(&req, page());
            assert_eq!(resp.status, Status::OK);
            assert!(
                !resp.body_string().trim_end().ends_with("</html>"),
                "truncated body still looks complete"
            );
        }
    }

    #[test]
    fn reset_marker_is_classified_retryable() {
        let plan = FaultPlan { reset_per_mille: 1_000, latency_per_mille: 0, ..FaultPlan::chaos() };
        let eng = engine(plan);
        let resp = eng.post(&Request::get("/profile/u1"), page());
        assert_eq!(resp.headers.get(H_SIMULATED_FAULT), Some("reset"));
        assert!(resp.headers.connection_close());
        assert!(matches!(classify(&resp), ErrorClass::Retryable { .. }));
    }

    #[test]
    fn scripted_suspension_fires_at_threshold() {
        let plan = FaultPlan { suspend_account_after: vec![100, 0], ..FaultPlan::chaos() };
        let eng = engine(plan);
        assert!(!eng.should_force_suspend(0, 99));
        assert!(eng.should_force_suspend(0, 100));
        assert!(!eng.should_force_suspend(1, u64::MAX), "0 means never");
        assert!(!eng.should_force_suspend(7, u64::MAX), "unlisted accounts never");
    }

    #[test]
    fn sequence_mode_draws_are_replay_stable() {
        // With x-attempt-seq present, every decision is a pure function
        // of (principal, seq, site): re-presenting the same request —
        // in any order, interleaved with anything — reproduces the same
        // outcome. This is the property crash-resume replays rely on.
        let eng = engine(FaultPlan::chaos());
        let outcome = |seq: u64| {
            let req = Request::get("/profile/u1")
                .header("Cookie", "sid=sid-0-00000000")
                .header(H_ATTEMPT_SEQ, seq.to_string());
            let pre = eng.pre(&req).map(|r| r.status.code());
            let post = eng.post(&req, page());
            (pre, post.status.code(), post.body.len())
        };
        let first: Vec<_> = (0..300).map(outcome).collect();
        // Replay a scattered subset out of order, after all of them.
        for &seq in &[250u64, 3, 40, 199, 0, 299] {
            assert_eq!(outcome(seq), first[seq as usize], "seq {seq} must replay identically");
        }
        // Sanity: the sequence stream does inject faults at chaos rates.
        assert!(first.iter().any(|(pre, ..)| pre.is_some()), "no pre-faults in 300 draws");
        assert!(
            first.iter().any(|(_, _, len)| *len < page().body.len()),
            "no truncations in 300 draws"
        );
    }

    #[test]
    fn scaled_plan_clamps_and_scales() {
        let base = FaultPlan::chaos();
        let double = base.scaled(2.0);
        assert_eq!(double.rate_limit_per_mille, 60);
        let extreme = base.scaled(1_000.0);
        assert_eq!(extreme.rate_limit_per_mille, 1_000);
        let off = base.scaled(0.0);
        assert_eq!(off.rate_limit_per_mille, 0);
        assert_eq!(off.suspend_account_after, base.suspend_account_after);
    }
}
