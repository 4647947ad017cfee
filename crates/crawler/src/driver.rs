//! The crawl vocabulary shared by the engine and its callers: the
//! [`OsnAccess`] interface the methodology consumes, crawl errors, the
//! pacing knobs ([`Politeness`], [`AdaptiveStrategy`]), per-endpoint
//! circuit breakers, and the attacker-side metrics and trace spans.
//!
//! The engine itself is [`crate::scheduler::ParallelCrawler`].

use crate::effort::Effort;
use crate::scrape::ScrapedProfile;
use crate::snapshot::CrawlSnapshot;
use hsp_graph::{SchoolId, UserId};
use hsp_http::resilient::{captcha_delay_ms, refusal_provenance, retryable_transport_error};
use hsp_http::{Exchange, HttpError, Request, Response, Status};
use hsp_obs::trace::{fnv1a_chain, splitmix64, SpanRecord, FNV_OFFSET};
use hsp_obs::{Counter, FlightRecorder, Registry, TraceCtx};
use std::collections::HashMap;
use std::sync::Arc;

/// Data-access interface the profiling methodology (hsp-core) consumes.
/// The real implementation is [`crate::ParallelCrawler`]; tests may
/// substitute stubs.
pub trait OsnAccess {
    /// Collect seeds for `school` using every account (paper §4.1 step 1).
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError>;

    /// Fetch (or return cached) public profile of `uid`.
    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError>;

    /// Fetch the full friend list of `uid`, paging through it; `None`
    /// when the list is not visible to strangers.
    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError>;

    /// Accumulated measurement effort.
    fn effort(&self) -> Effort;

    /// Users whose friend list came back *partial* (the crawl degraded
    /// gracefully instead of failing). Default: none.
    fn incomplete_friends(&self) -> Vec<UserId> {
        Vec::new()
    }

    /// Users found tombstoned (deactivated or graduated away) while the
    /// crawl was running — the platform served a marker page and the
    /// crawl degraded to a Completeness disclosure instead of erroring.
    /// Default: none (frozen platforms never tombstone).
    fn tombstoned_users(&self) -> Vec<UserId> {
        Vec::new()
    }

    /// Attempt to send a direct message (the §2 spear-phishing channel).
    /// Returns whether the platform accepted delivery. Default: not
    /// supported (stub accessors used in unit tests).
    fn send_message(&mut self, uid: UserId, body: &str) -> Result<bool, CrawlError> {
        let _ = (uid, body);
        Ok(false)
    }

    /// Fetch a circles page-set (Google+, Appendix A): `incoming = false`
    /// for "in your circles", `true` for "have you in circles". `None`
    /// when not visible or the platform has no circles. Default: no
    /// circles.
    fn circles(&mut self, uid: UserId, incoming: bool) -> Result<Option<Vec<UserId>>, CrawlError> {
        let _ = (uid, incoming);
        Ok(None)
    }

    /// Hint that these users' profiles are about to be requested.
    /// Parallel implementations fetch the batch concurrently and commit
    /// it to the cache in canonical (UserId-sorted) order; the default
    /// (offline replay, test stubs) is a no-op — callers always
    /// follow up with per-user [`OsnAccess::profile`] calls.
    fn prefetch_profiles(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let _ = uids;
        Ok(())
    }

    /// Like [`OsnAccess::prefetch_profiles`], for friend lists.
    fn prefetch_friends(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let _ = uids;
        Ok(())
    }

    /// Export everything fetched so far as a [`CrawlSnapshot`].
    /// Default: empty snapshot (stub accessors don't checkpoint).
    fn checkpoint(&self) -> CrawlSnapshot {
        CrawlSnapshot::default()
    }

    /// Virtual wall-clock the crawl has consumed so far, in ms.
    /// Default: untracked.
    fn virtual_elapsed_ms(&self) -> u64 {
        0
    }
}

/// Crawl-level failures.
#[derive(Debug)]
pub enum CrawlError {
    Http(HttpError),
    /// The platform refused the request (suspension, auth loss, ...).
    Denied(Status),
    /// A page could not be interpreted.
    BadPage(&'static str),
}

impl std::fmt::Display for CrawlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlError::Http(e) => write!(f, "http: {e}"),
            CrawlError::Denied(s) => write!(f, "denied: {s}"),
            CrawlError::BadPage(w) => write!(f, "bad page: {w}"),
        }
    }
}

impl std::error::Error for CrawlError {}

impl From<HttpError> for CrawlError {
    fn from(e: HttpError) -> Self {
        CrawlError::Http(e)
    }
}

/// Politeness model: the paper's crawlers "implement\[ed\] sleeping
/// functions" (§3.2). We advance a virtual clock instead of really
/// sleeping, so experiments report the wall-clock a polite crawl would
/// take without paying it.
///
/// The spacing is *adaptive*, modeling the paper's stay-under-the-radar
/// pacing: when the platform pushes back — a shed 503 from the hardened
/// edge, or an edge-rate-limit 429 — the crawler doubles its spacing
/// (up to `max_widen_factor`×); after `narrow_after_successes` clean
/// fetches in a row it halves its way back toward the base rate.
#[derive(Clone, Copy, Debug)]
pub struct Politeness {
    /// Base virtual milliseconds between consecutive requests per account.
    pub sleep_ms_between_requests: u64,
    /// Cap on the adaptive widening multiplier (1 disables adaptation).
    pub max_widen_factor: u64,
    /// Clean fetches in a row before the spacing narrows one step.
    pub narrow_after_successes: u32,
}

impl Default for Politeness {
    fn default() -> Self {
        Politeness {
            sleep_ms_between_requests: 1_500,
            max_widen_factor: 8,
            narrow_after_successes: 16,
        }
    }
}

/// The adaptive attacker: evasion maneuvers against the platform's
/// behavioral sybil detector (`hsp-defense`). Everything is drawn from
/// a seeded per-account lane RNG, so an adaptive crawl is exactly as
/// deterministic as a naive one.
///
/// - **politeness randomization**: each inter-request sleep is scaled
///   by a uniform per-mille factor in `[jitter_min_pm, jitter_max_pm]`,
///   killing the metronomic-gap signature;
/// - **account warm-up**: each account's first `warmup_requests`
///   requests are slowed by `warmup_factor`× (new accounts "age" before
///   crawling at speed), keeping young accounts under the detector's
///   evidence threshold longer;
/// - **traffic mimicry**: after every `decoy_every` productive profile
///   fetches, one already-scraped profile is re-fetched (humans revisit
///   friends), deflating the traversal fan-out feature. Decoys are
///   billed to `Effort::decoy_requests`, never to scraping progress.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveStrategy {
    /// Seed of the evasion RNG (per-account lanes are derived from it).
    pub seed: u64,
    /// Politeness jitter lower bound, per-mille of the base sleep.
    pub jitter_min_pm: u64,
    /// Politeness jitter upper bound, per-mille of the base sleep.
    pub jitter_max_pm: u64,
    /// Requests per account crawled at warm-up pace before full speed.
    pub warmup_requests: u64,
    /// Politeness multiplier during warm-up.
    pub warmup_factor: u64,
    /// One decoy re-fetch per this many productive profile fetches
    /// (0 disables mimicry).
    pub decoy_every: u64,
}

impl Default for AdaptiveStrategy {
    fn default() -> Self {
        AdaptiveStrategy {
            seed: 0xADA_2013,
            jitter_min_pm: 600,
            jitter_max_pm: 2_600,
            warmup_requests: 12,
            warmup_factor: 3,
            decoy_every: 3,
        }
    }
}

impl AdaptiveStrategy {
    /// Default maneuvers with an explicit seed.
    pub fn seeded(seed: u64) -> AdaptiveStrategy {
        AdaptiveStrategy { seed, ..AdaptiveStrategy::default() }
    }

    /// Sleep multiplier (per-mille) for account `lane`'s `n`-th request:
    /// a counter-free splitmix64 draw, a pure function of `(seed, lane,
    /// n)`, so the schedule an account follows depends only on its own
    /// request order.
    pub(crate) fn jitter_pm(&self, lane: u64, n: u64) -> u64 {
        let draw =
            splitmix64(self.seed ^ splitmix64(1 + lane) ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let span = self.jitter_max_pm.saturating_sub(self.jitter_min_pm) + 1;
        self.jitter_min_pm + draw % span
    }
}

/// Consecutive endpoint failures that open a seat's circuit breaker.
pub(crate) const BREAKER_FAILURE_THRESHOLD: u32 = 4;
/// Virtual cooldown before the half-open probe once a breaker opened.
pub(crate) const BREAKER_COOLDOWN_MS: u64 = 30_000;

/// Endpoint labels used for metrics, effort buckets and breakers.
pub(crate) const EP_AUTH: &str = "auth";
pub(crate) const EP_SEEDS: &str = "find-friends";
pub(crate) const EP_PROFILE: &str = "profile";
pub(crate) const EP_FRIENDS: &str = "friends";
pub(crate) const EP_CIRCLES: &str = "circles";
pub(crate) const EP_MESSAGE: &str = "message";
/// Mimicry re-fetches by the adaptive crawler: real requests, but not
/// scraping progress — billed to their own effort bucket.
pub(crate) const EP_DECOY: &str = "decoy";
pub(crate) const ENDPOINTS: [&str; 7] =
    [EP_AUTH, EP_SEEDS, EP_PROFILE, EP_FRIENDS, EP_CIRCLES, EP_MESSAGE, EP_DECOY];

/// Refusal provenance labels for `crawler_refusals_total{source=…}` —
/// the audit-side half of the response-header taxonomy: every refusal
/// the crawl absorbs is attributed to exactly one limiter.
pub(crate) const REFUSAL_SOURCES: [&str; 5] = ["edge", "fault", "throttle", "shed", "suspension"];

/// Deterministic trace lane for an account: FNV-1a of its username.
/// Usernames are unique per account (including recruits), so lanes are
/// globally collision-stable and identical at any worker count.
pub(crate) fn trace_lane(username: &str) -> u64 {
    fnv1a_chain(FNV_OFFSET, username.as_bytes())
}

/// Record the crawl-side root span for one issued request. `resp` is
/// `None` when the transport failed outright (the retry layer's budget
/// included). The outcome taxonomy mirrors the fetch loop's own
/// branches so a trace reads like the crawler's decision log.
pub(crate) fn record_root_span(
    tracer: &FlightRecorder,
    ctx: &TraceCtx,
    name: &str,
    begin_ms: u64,
    end_ms: u64,
    resp: Option<&Response>,
) {
    let (status, outcome, provenance, captcha_ms) = match resp {
        None => (0, "transport", "", 0),
        Some(resp) => {
            let provenance = refusal_provenance(resp).unwrap_or("");
            let outcome = if resp.status.is_success() {
                "ok"
            } else if resp.status == Status::FORBIDDEN {
                "denied"
            } else if resp.status == Status::UNAUTHORIZED {
                "session-expired"
            } else if !provenance.is_empty() {
                "refused"
            } else {
                "error"
            };
            (resp.status.code(), outcome, provenance, captcha_delay_ms(resp).unwrap_or(0))
        }
    };
    tracer.record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: ctx.root_span(),
        parent_id: 0,
        lane: ctx.lane,
        ordinal: ctx.ordinal,
        name: name.to_string(),
        begin_ms,
        end_ms,
        status,
        outcome: outcome.to_string(),
        provenance: provenance.to_string(),
        captcha_ms,
    });
}

/// Pre-resolved crawler metric handles (attacker-side accounting):
/// per-endpoint fetch counts, cache hit/miss tallies, retry/breaker/
/// failover telemetry, and the virtual politeness clock. Recording is
/// atomic adds only, so one instance is safely shared across the
/// scheduler's worker threads.
pub(crate) struct CrawlerMetrics {
    pub(crate) fetch: HashMap<&'static str, Arc<Counter>>,
    pub(crate) fetch_retry: Arc<Counter>,
    pub(crate) cache_profile_hits: Arc<Counter>,
    pub(crate) cache_profile_misses: Arc<Counter>,
    pub(crate) cache_friends_hits: Arc<Counter>,
    pub(crate) cache_friends_misses: Arc<Counter>,
    pub(crate) cache_circles_hits: Arc<Counter>,
    pub(crate) cache_circles_misses: Arc<Counter>,
    pub(crate) politeness_virtual_ms: Arc<Counter>,
    pub(crate) politeness_widened: Arc<Counter>,
    pub(crate) auth_retries: Arc<Counter>,
    pub(crate) breaker_open: HashMap<&'static str, Arc<Counter>>,
    pub(crate) breaker_closed: HashMap<&'static str, Arc<Counter>>,
    pub(crate) account_suspensions: Arc<Counter>,
    pub(crate) accounts_recruited: Arc<Counter>,
    pub(crate) partial_friend_lists: Arc<Counter>,
    /// CAPTCHA interstitials absorbed (count and virtual solve time).
    pub(crate) captcha_challenges: Arc<Counter>,
    pub(crate) captcha_virtual_ms: Arc<Counter>,
    /// Mimicry decoy fetches issued by the adaptive strategy.
    pub(crate) adapt_decoys: Arc<Counter>,
    /// Pages re-fetched because a live-world generation stamp went
    /// stale between the paired fetches (profile ↔ friend list, or
    /// across one friend-list pagination run).
    pub(crate) stale_refetches: Arc<Counter>,
    /// Tombstone pages absorbed (deactivated/graduated users degraded
    /// to a Completeness disclosure).
    pub(crate) tombstones: Arc<Counter>,
    /// Refusals by provenance (see [`REFUSAL_SOURCES`]).
    pub(crate) refusals: HashMap<&'static str, Arc<Counter>>,
}

impl CrawlerMetrics {
    pub(crate) fn register(reg: &Registry) -> CrawlerMetrics {
        let fetch = |e: &str| reg.counter_with("crawler_fetch_total", &[("endpoint", e)]);
        let cache = |c: &str, r: &str| {
            reg.counter_with("crawler_cache_total", &[("cache", c), ("result", r)])
        };
        let breaker = |e: &str, to: &str| {
            reg.counter_with("crawler_breaker_transitions_total", &[("endpoint", e), ("to", to)])
        };
        CrawlerMetrics {
            fetch: ENDPOINTS.iter().map(|&e| (e, fetch(e))).collect(),
            fetch_retry: fetch("retry"),
            cache_profile_hits: cache("profile", "hit"),
            cache_profile_misses: cache("profile", "miss"),
            cache_friends_hits: cache("friends", "hit"),
            cache_friends_misses: cache("friends", "miss"),
            cache_circles_hits: cache("circles", "hit"),
            cache_circles_misses: cache("circles", "miss"),
            politeness_virtual_ms: reg.counter("crawler_politeness_virtual_ms"),
            politeness_widened: reg.counter("crawler_politeness_widened_total"),
            auth_retries: reg.counter("crawler_auth_retries_total"),
            breaker_open: ENDPOINTS.iter().map(|&e| (e, breaker(e, "open"))).collect(),
            breaker_closed: ENDPOINTS.iter().map(|&e| (e, breaker(e, "closed"))).collect(),
            account_suspensions: reg.counter("crawler_account_suspensions_total"),
            accounts_recruited: reg.counter("crawler_accounts_recruited_total"),
            partial_friend_lists: reg.counter("crawler_partial_friend_lists_total"),
            captcha_challenges: reg.counter("crawler_adapt_captcha_challenges_total"),
            captcha_virtual_ms: reg.counter("crawler_adapt_captcha_virtual_ms"),
            adapt_decoys: reg.counter("crawler_adapt_decoys_total"),
            stale_refetches: reg.counter("crawler_stale_refetch_total"),
            tombstones: reg.counter("crawler_tombstones_total"),
            refusals: REFUSAL_SOURCES
                .iter()
                .map(|&s| (s, reg.counter_with("crawler_refusals_total", &[("source", s)])))
                .collect(),
        }
    }

    pub(crate) fn refusal(&self, source: &'static str, n: u64) {
        if n > 0 {
            if let Some(c) = self.refusals.get(source) {
                c.add(n);
            }
        }
    }
}

/// Attempts per auth POST (signup/login) before a transport failure is
/// surfaced. These POSTs are *application-idempotent* — a double signup
/// answers 400 "already registered" (tolerated), a double login mints a
/// fresh session — so resending after a transport error is safe, unlike
/// the blind transport-layer POST replay the retry layers forbid.
const AUTH_POST_ATTEMPTS: u32 = 4;

/// POST an auth form, retrying boundedly on retryable transport errors.
/// Returns the response and how many *retries* (attempts − 1) it took.
pub(crate) fn auth_post<E: Exchange>(
    exchange: &mut E,
    req: &Request,
) -> Result<(Response, u64), CrawlError> {
    let mut retries = 0u64;
    loop {
        match exchange.exchange(req.clone()) {
            Ok(resp) => return Ok((resp, retries)),
            Err(e)
                if retries + 1 < u64::from(AUTH_POST_ATTEMPTS) && retryable_transport_error(&e) =>
            {
                retries += 1;
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// An HTML page is complete iff the renderer's closing tag made it
/// through — the crawler's defense against silent truncation.
pub(crate) fn html_complete(resp: &Response) -> bool {
    let is_html = resp.headers.get("content-type").is_some_and(|ct| ct.contains("text/html"));
    !is_html || String::from_utf8_lossy(&resp.body).trim_end().ends_with("</html>")
}
