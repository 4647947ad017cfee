//! The crawl engine: the paper's sock-puppet fleet, one seat per fake
//! account, driven by a deterministic work-stealing scheduler. The
//! paper's own crawl is this engine at `workers = 1`.
//!
//! Each fake account owns a worker seat with its own keep-alive
//! exchange (typically a [`hsp_http::ResilientExchange`]), its own
//! politeness/rate budget on its own virtual clock, its own pacing
//! state (pushback widening, the adaptive strategy's cursors) and its
//! own per-endpoint circuit breakers. Work arrives in batches (profile
//! prefetches, friend-list prefetches, per-account seed sweeps); the
//! scheduler shards every batch over the *live accounts* — item `i` in
//! canonical order goes to live account `i mod L` — and OS threads
//! steal whole account-queues from an atomic cursor. Worker count
//! therefore only decides which thread happens to drive an account; it
//! never changes any account's ordered request sequence, which is the
//! unit the platform's fault engine, sybil detector and mutation engine
//! key their streams on. Results are committed in canonical
//! (UserId-sorted) order after the batch joins, so Table 3/Table 4
//! outputs and [`CrawlSnapshot`] checkpoints are **bit-identical at any
//! worker count** — including under `FaultPlan::chaos()`.
//!
//! The crawler keeps one crawl state, its committed [`ResumeState`].
//! Each operation that fetched something builds its [`JournalRecord`]s,
//! journals them when a journal is attached, and applies them with
//! [`ResumeState::apply`] — the transition recovery folds a journal
//! with — so a crawler equals the fold of its own journal. Machine
//! state is kept the same way: each seat keeps the [`LaneState`] it
//! journals (only its clock position and transport state are read in
//! at a commit, from the seat's clock and exchange), the scheduler
//! keeps one live [`SchedState`], and a resume hands them back whole.
//!
//! Every request carries its seat's clock in `x-virtual-now-ms`: that
//! stamp is the one timeline of the crawl. The platform serves a live
//! world as of it, and the sybil detector times each session's gaps on
//! it, so an account's treatment depends only on its own requests.
//!
//! Failover: a suspension drops the account's unfinished queue items
//! into a leftover pool, the fleet doubles via (strictly serial)
//! recruitment after the batch joins — account indices on the platform
//! are assigned by arrival order — and the leftovers are redistributed
//! over the survivors.
//!
//! Because politeness is virtual time, "how long would this crawl
//! take" is modeled rather than slept: each batch contributes the
//! makespan of a greedy least-loaded assignment of its per-account
//! queue durations onto `workers` lanes. That number is deterministic,
//! hardware-independent, and what `experiments worker-scaling` reports
//! as the attack's modeled makespan.

use crate::driver::{
    auth_post, html_complete, record_root_span, trace_lane, AdaptiveStrategy, CrawlError,
    CrawlerMetrics, OsnAccess, Politeness, BREAKER_COOLDOWN_MS, BREAKER_FAILURE_THRESHOLD, EP_AUTH,
    EP_CIRCLES, EP_DECOY, EP_FRIENDS, EP_MESSAGE, EP_PROFILE, EP_SEEDS,
};
use crate::effort::Effort;
use crate::journal::{
    BreakerState, Journal, JournalError, JournalRecord, LaneState, ResumeState, SchedState,
};
use crate::scrape::{parse_listing, parse_listing_stamped, parse_profile, ScrapedProfile};
use crate::snapshot::CrawlSnapshot;
use hsp_graph::{SchoolId, UserId};
use hsp_http::resilient::{
    captcha_delay_ms, is_shed, retryable_transport_error, RetryStats, RetryStatsSnapshot,
    H_ACCOUNT_SUSPENDED, H_TRACE_ID, H_VIRTUAL_NOW,
};
use hsp_http::{Exchange, HttpError, Request, Response, Status};
use hsp_obs::trace::TRACE_SEED;
use hsp_obs::{FlightRecorder, Gauge, Histogram, Registry, TraceCtx, VirtualClock};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One account's transport plus its private timeline. The clock must
/// be **per account** (not shared with other accounts): the resilient
/// layer charges backoff and absorbed latency to it, and sharing one
/// clock across concurrent accounts would make each account's apparent
/// elapsed time depend on thread interleaving. A seat built with
/// `clock: None` gets a private clock of its own, which only the
/// crawler advances.
pub struct AccountSeat<E: Exchange> {
    pub exchange: E,
    pub clock: Option<Arc<VirtualClock>>,
}

/// A unit of crawl work, shardable across accounts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Job {
    /// Page through this account's own search sample (seeds are
    /// per-account by design — each account sees its own sample).
    Seeds(SchoolId),
    Profile(UserId),
    Friends(UserId),
    Circles(UserId, bool),
}

/// What a completed job produced.
enum JobOut {
    Seeds(Vec<UserId>),
    Profile(ScrapedProfile),
    /// (list, partial, gen): `None` = hidden; `partial` = degraded
    /// mid-list; `gen` = the live-world generation stamp the pages
    /// agreed on (`None` on a frozen platform).
    Friends(Option<Vec<UserId>>, bool, Option<u64>),
    Circles(Option<Vec<UserId>>),
}

enum JobOutcome {
    Done(JobOut),
    /// The account was suspended mid-job; the job (and the rest of the
    /// account's queue) must fail over to a survivor.
    Suspended,
    Fatal(CrawlError),
}

enum FetchOut {
    Page(Response),
    Suspended,
    Fatal(CrawlError),
}

/// Read-only knobs shared by every worker thread.
struct Shared {
    politeness: Politeness,
    /// Detector-evasion maneuvers; `None` = the naive crawler.
    adaptive: Option<AdaptiveStrategy>,
    /// Per-job attempt budget.
    budget: usize,
    metrics: Option<Arc<CrawlerMetrics>>,
    /// Flight recorder shared with the registry (trace propagation).
    tracer: Option<Arc<FlightRecorder>>,
    /// Transport retry counters shared with the seats' exchanges.
    retry_stats: Option<Arc<RetryStats>>,
}

/// Scheduler-level telemetry (on top of the shared [`CrawlerMetrics`]).
struct SchedMetrics {
    prefetch_batch_us: Arc<Histogram>,
    pages_per_sec: Arc<Gauge>,
    virtual_pages_per_sec: Arc<Gauge>,
    workers: Arc<Gauge>,
}

impl SchedMetrics {
    fn register(reg: &Registry) -> SchedMetrics {
        SchedMetrics {
            prefetch_batch_us: reg.histogram("crawler_prefetch_batch_us"),
            pages_per_sec: reg.gauge("crawler_pages_per_sec"),
            virtual_pages_per_sec: reg.gauge("crawler_virtual_pages_per_sec"),
            workers: reg.gauge("crawler_workers"),
        }
    }
}

/// One sock-puppet account: its exchange and virtual timeline, and the
/// [`LaneState`] it journals (session, effort ledger, pacing state,
/// per-endpoint breakers, trace cursor). Only one thread drives an
/// account at a time (queues are stolen whole), so the interior is
/// plain data behind the scheduler's `Mutex`.
struct AccountWorker<E: Exchange> {
    exchange: E,
    clock: Arc<VirtualClock>,
    /// This seat's journaled state. Its `clock_ms` and `transport` live
    /// in `clock` and `exchange` and are read into it at each commit
    /// ([`AccountWorker::sync_lane`]). Only this worker's thread touches
    /// the trace ordinal, so per-lane trace ids are deterministic at any
    /// worker count.
    lane: LaneState,
    /// [`trace_lane`] of the username: keys this seat's trace ids and
    /// the adaptive strategy's jitter stream.
    trace_lane: u64,
    /// Application-level auth-POST retries (signup/login resent after a
    /// transport failure or a refusal). Not journaled: the soak
    /// reconciles it against the chaos layer's POST-redelivery watchdog
    /// in-process.
    auth_retries: u64,
}

impl<E: Exchange> AccountWorker<E> {
    fn new(seat: AccountSeat<E>, lane: LaneState) -> Self {
        AccountWorker {
            exchange: seat.exchange,
            clock: seat.clock.unwrap_or_else(VirtualClock::shared),
            trace_lane: trace_lane(&lane.username),
            lane,
            auth_retries: 0,
        }
    }

    /// The lane state as of now: the clock position and transport state
    /// read into the kept [`LaneState`].
    fn sync_lane(&mut self) -> &LaneState {
        self.lane.clock_ms = self.clock.now_ms();
        self.lane.transport = self.exchange.transport_state();
        &self.lane
    }

    /// Mint the next trace context on this account's lane, or `None`
    /// when tracing is off.
    fn next_trace_ctx(&mut self, shared: &Shared) -> Option<(Arc<FlightRecorder>, TraceCtx)> {
        let tracer = shared.tracer.as_ref()?;
        if !tracer.is_enabled() {
            return None;
        }
        let ctx = TraceCtx::derive(TRACE_SEED, self.trace_lane, self.lane.trace_ordinal);
        self.lane.trace_ordinal += 1;
        Some((Arc::clone(tracer), ctx))
    }

    /// Count one issued request against the endpoint's effort bucket
    /// and metric. Re-fetches (truncation, failover) count again —
    /// that's the point: Table 3 stays honest under faults.
    fn count_request(&mut self, endpoint: &'static str, shared: &Shared) {
        match endpoint {
            EP_AUTH => self.lane.effort.auth_requests += 1,
            EP_SEEDS => self.lane.effort.seed_requests += 1,
            EP_PROFILE => self.lane.effort.profile_requests += 1,
            EP_FRIENDS | EP_CIRCLES => self.lane.effort.friend_list_requests += 1,
            EP_MESSAGE => self.lane.effort.message_requests += 1,
            EP_DECOY => self.lane.effort.decoy_requests += 1,
            _ => {}
        }
        if let Some(m) = &shared.metrics {
            if let Some(c) = m.fetch.get(endpoint) {
                c.inc();
            }
        }
    }

    /// Sleep before this account's next request. The naive crawler
    /// sleeps a metronomic `base × widen_factor`; the adaptive one
    /// jitters the sleep from the account's own draw counter and
    /// multiplies it during the account's warm-up.
    fn advance_politeness(&mut self, shared: &Shared) {
        let base =
            shared.politeness.sleep_ms_between_requests * self.lane.pacing.widen_factor.max(1);
        let ms = match shared.adaptive {
            None => base,
            Some(s) => {
                let n = self.lane.pacing.draws;
                self.lane.pacing.draws += 1;
                let warmup = if n < s.warmup_requests { s.warmup_factor.max(1) } else { 1 };
                (base * s.jitter_pm(self.trace_lane, n) / 1_000 * warmup).max(1)
            }
        };
        self.clock.advance_ms(ms);
        if let Some(m) = &shared.metrics {
            m.politeness_virtual_ms.add(ms);
        }
    }

    /// The platform pushed back (shed 503 or 429): double this
    /// account's spacing, capped, the way the paper's crawlers slowed
    /// down to stay under the radar.
    fn widen_pacing(&mut self, shared: &Shared) {
        self.lane.pacing.calm_streak = 0;
        let cap = shared.politeness.max_widen_factor.max(1);
        let factor = self.lane.pacing.widen_factor.max(1);
        if factor < cap {
            self.lane.pacing.widen_factor = (factor * 2).min(cap);
            if let Some(m) = &shared.metrics {
                m.politeness_widened.inc();
            }
        }
    }

    /// A clean fetch: after enough calm in a row, narrow one step back
    /// toward the base rate.
    fn note_fetch_success(&mut self, shared: &Shared) {
        if self.lane.pacing.widen_factor <= 1 {
            return;
        }
        self.lane.pacing.calm_streak += 1;
        if self.lane.pacing.calm_streak >= shared.politeness.narrow_after_successes {
            self.lane.pacing.calm_streak = 0;
            self.lane.pacing.widen_factor /= 2;
        }
    }

    /// Bill one page re-fetched over a live-world staleness conflict
    /// (the GET itself already landed in the endpoint bucket).
    fn note_stale_refetch(&mut self, shared: &Shared) {
        self.lane.effort.stale_refetch_requests += 1;
        if let Some(m) = &shared.metrics {
            m.stale_refetches.inc();
        }
    }

    fn breaker_failure(&mut self, endpoint: &'static str, shared: &Shared) {
        let breaker = self.lane.breakers.entry(endpoint.to_string()).or_default();
        if breaker.record_failure(BREAKER_FAILURE_THRESHOLD) {
            if let Some(m) = &shared.metrics {
                if let Some(c) = m.breaker_open.get(endpoint) {
                    c.inc();
                }
            }
            self.clock.advance_ms(BREAKER_COOLDOWN_MS);
        }
    }

    /// Breakers are kept from an endpoint's first failure on, so a
    /// success on an endpoint that never failed touches nothing.
    fn breaker_success(&mut self, endpoint: &'static str, shared: &Shared) {
        if self.lane.breakers.get_mut(endpoint).is_some_and(BreakerState::record_success) {
            if let Some(m) = &shared.metrics {
                if let Some(c) = m.breaker_closed.get(endpoint) {
                    c.inc();
                }
            }
        }
    }

    fn mark_suspended(&mut self, shared: &Shared) {
        if !self.lane.suspended {
            self.lane.suspended = true;
            if let Some(m) = &shared.metrics {
                m.account_suspensions.inc();
                m.refusal("suspension", 1);
            }
        }
    }

    /// Pay any `x-captcha` interstitial the sybil detector attached to
    /// this page: the "solve time" lands on this account's timeline and
    /// on its effort ledger.
    fn absorb_captcha(&mut self, resp: &Response, shared: &Shared) {
        let Some(ms) = captcha_delay_ms(resp) else { return };
        self.lane.effort.captcha_challenges += 1;
        self.lane.effort.captcha_virtual_ms += ms;
        self.clock.advance_ms(ms);
        if let Some(m) = &shared.metrics {
            m.captcha_challenges.inc();
            m.captcha_virtual_ms.add(ms);
        }
    }

    /// POST this account's credentials to `/signup` or `/login`,
    /// resending after transport errors (see [`auth_post`]) and, the way
    /// [`AccountWorker::fetch`] does, after a refusal that outlived the
    /// retry layer (a shed or fault 5xx, or a 429 that is not a
    /// suspension): breaker accounting, wider pacing on pushback, and
    /// another send within the job budget. Every send is billed as auth
    /// effort; the resends are also tallied as intentional auth retries.
    fn auth(&mut self, path: &str, shared: &Shared) -> Result<Response, CrawlError> {
        let mut sends = 0;
        loop {
            sends += 1;
            let resp = self.auth_once(path, shared)?;
            let refused = matches!(resp.status.code(), 500 | 503)
                || (resp.status == Status::TOO_MANY_REQUESTS
                    && !resp.headers.contains(H_ACCOUNT_SUSPENDED));
            if !refused {
                if sends > 1 {
                    self.breaker_success(EP_AUTH, shared);
                }
                return Ok(resp);
            }
            if sends >= shared.budget {
                return Ok(resp);
            }
            if is_shed(&resp) || resp.status == Status::TOO_MANY_REQUESTS {
                self.widen_pacing(shared);
            }
            self.breaker_failure(EP_AUTH, shared);
            self.note_auth_retries(1, shared);
        }
    }

    /// One auth POST, with its transport-error resends.
    fn auth_once(&mut self, path: &str, shared: &Shared) -> Result<Response, CrawlError> {
        let mut req = Request::post_form(
            path,
            &[("user", &self.lane.username), ("pass", &self.lane.password)],
        );
        let trace = self.next_trace_ctx(shared);
        if let Some((_, ctx)) = &trace {
            req = req.header(H_TRACE_ID, ctx.header_value());
        }
        let begin_ms = self.clock.now_ms();
        let result = auth_post(&mut self.exchange, &req);
        if let Some((tracer, ctx)) = &trace {
            let resp = result.as_ref().ok().map(|(resp, _)| resp);
            record_root_span(tracer, ctx, EP_AUTH, begin_ms, self.clock.now_ms(), resp);
        }
        let (resp, retries) = result?;
        for _ in 0..=retries {
            self.count_request(EP_AUTH, shared);
        }
        self.note_auth_retries(retries, shared);
        Ok(resp)
    }

    fn note_auth_retries(&mut self, retries: u64, shared: &Shared) {
        if retries > 0 {
            self.auth_retries += retries;
            if let Some(m) = &shared.metrics {
                m.auth_retries.add(retries);
            }
        }
    }

    /// Sign up (tolerating "already registered" — also what a signup
    /// whose response was lost to transport chaos answers on resend)
    /// and log in.
    fn enroll(&mut self, shared: &Shared) -> Result<(), CrawlError> {
        let resp = self.auth("/signup", shared)?;
        if !resp.status.is_success() && resp.status != Status::BAD_REQUEST {
            return Err(CrawlError::Denied(resp.status));
        }
        self.relogin(shared)
    }

    fn relogin(&mut self, shared: &Shared) -> Result<(), CrawlError> {
        let resp = self.auth("/login", shared)?;
        if !resp.status.is_success() {
            return Err(CrawlError::Denied(resp.status));
        }
        Ok(())
    }

    /// GET `path` on this account, surviving what the transport-level
    /// retry layer couldn't fix: truncated pages (re-fetch), lost
    /// sessions (re-login), transport failures and persistent endpoint
    /// failure (circuit breaker cooldowns), and pushback (wider
    /// pacing). Suspension ends the account; failover is the
    /// scheduler's job, at queue granularity.
    fn fetch(&mut self, endpoint: &'static str, path: &str, shared: &Shared) -> FetchOut {
        let mut relogins = 0u32;
        let mut truncations = 0u32;
        let mut last_denied = Status::SERVICE_UNAVAILABLE;
        for _ in 0..shared.budget {
            if self.lane.suspended {
                return FetchOut::Suspended;
            }
            self.advance_politeness(shared);
            let trace = self.next_trace_ctx(shared);
            let begin_ms = self.clock.now_ms();
            // Request-carried virtual time: the seat clocks are the
            // crawl's only timeline, so this stamp is what a mutating
            // platform serves and the detector times deterministically.
            let mut req = Request::get(path).header(H_VIRTUAL_NOW, begin_ms.to_string());
            if let Some((_, ctx)) = &trace {
                req = req.header(H_TRACE_ID, ctx.header_value());
            }
            let sheds_before = shared.retry_stats.as_ref().map(|s| s.sheds());
            let result = self.exchange.exchange(req);
            if let Some((tracer, ctx)) = &trace {
                record_root_span(
                    tracer,
                    ctx,
                    endpoint,
                    begin_ms,
                    self.clock.now_ms(),
                    result.as_ref().ok(),
                );
            }
            self.count_request(endpoint, shared);
            // Sheds the retry layer absorbed during this call: the
            // server asked for wider spacing even if the page landed.
            if shared.retry_stats.as_ref().map(|s| s.sheds()) > sheds_before {
                self.widen_pacing(shared);
            }
            let resp = match result {
                Ok(resp) => resp,
                // A deadline, or a transport failure that outlived the
                // retry layer's budget (sustained chaos): breaker
                // accounting, then try again rather than sinking the
                // crawl.
                Err(e)
                    if matches!(e, HttpError::DeadlineExceeded)
                        || retryable_transport_error(&e) =>
                {
                    self.breaker_failure(endpoint, shared);
                    continue;
                }
                Err(e) => return FetchOut::Fatal(e.into()),
            };
            // A flagged session pays its CAPTCHA interstitial on every
            // served page — including degraded ones.
            self.absorb_captcha(&resp, shared);
            if resp.status.is_success() {
                if !html_complete(&resp) {
                    truncations += 1;
                    self.breaker_failure(endpoint, shared);
                    if truncations > 3 {
                        return FetchOut::Fatal(CrawlError::BadPage("persistently truncated page"));
                    }
                    continue;
                }
                self.breaker_success(endpoint, shared);
                self.note_fetch_success(shared);
                return FetchOut::Page(resp);
            }
            match resp.status {
                // Policy denial, not a fault: callers interpret 403.
                Status::FORBIDDEN => {
                    self.breaker_success(endpoint, shared);
                    return FetchOut::Page(resp);
                }
                // Session lost (fault-injected expiry or eviction): log
                // back in on the same account and re-issue.
                Status::UNAUTHORIZED => {
                    relogins += 1;
                    if relogins > 2 {
                        return FetchOut::Fatal(CrawlError::Denied(resp.status));
                    }
                    if let Err(e) = self.relogin(shared) {
                        return FetchOut::Fatal(e);
                    }
                }
                Status::TOO_MANY_REQUESTS if resp.headers.contains(H_ACCOUNT_SUSPENDED) => {
                    self.mark_suspended(shared);
                    return FetchOut::Suspended;
                }
                // A retryable status that outlived the retry budget
                // (sustained 429/5xx): breaker accounting, then try
                // again. Server pushback (a shed or a 429, as opposed
                // to an injected fault 5xx) also widens the pacing.
                s => {
                    last_denied = s;
                    if is_shed(&resp) || s == Status::TOO_MANY_REQUESTS {
                        self.widen_pacing(shared);
                    }
                    self.breaker_failure(endpoint, shared);
                }
            }
        }
        FetchOut::Fatal(CrawlError::Denied(last_denied))
    }

    /// Traffic mimicry (adaptive crawls): after every `decoy_every`
    /// profiles this account fetched, re-fetch the first live profile
    /// of that window, so the session's traversal fan-out looks human
    /// (people revisit their friends). The schedule is a pure function
    /// of the account's own queue. A failed decoy is simply dropped —
    /// mimicry is cover traffic, never load-bearing.
    fn maybe_issue_decoy(&mut self, uid: UserId, tombstoned: bool, shared: &Shared) {
        let Some(s) = shared.adaptive else { return };
        if s.decoy_every == 0 {
            return;
        }
        if !tombstoned && self.lane.pacing.revisit.is_none() {
            self.lane.pacing.revisit = Some(uid);
        }
        self.lane.pacing.profiles += 1;
        if !self.lane.pacing.profiles.is_multiple_of(s.decoy_every) {
            return;
        }
        let Some(target) = self.lane.pacing.revisit.take() else { return };
        if let Some(m) = &shared.metrics {
            m.adapt_decoys.inc();
        }
        let _ = self.fetch(EP_DECOY, &format!("/profile/{target}"), shared);
    }

    fn run(&mut self, job: Job, shared: &Shared) -> JobOutcome {
        match job {
            Job::Seeds(school) => self.run_seeds(school, shared),
            Job::Profile(uid) => self.run_profile(uid, shared),
            Job::Friends(uid) => self.run_friends(uid, shared),
            Job::Circles(uid, incoming) => self.run_circles(uid, incoming, shared),
        }
    }

    fn run_seeds(&mut self, school: SchoolId, shared: &Shared) -> JobOutcome {
        let mut out = Vec::new();
        let mut url = format!("/find-friends?school={school}");
        loop {
            let resp = match self.fetch(EP_SEEDS, &url, shared) {
                FetchOut::Page(resp) => resp,
                // Seeds are pinned to this account's own sample, so
                // losing the account mid-sweep sinks the seed phase.
                FetchOut::Suspended => {
                    return JobOutcome::Fatal(CrawlError::Denied(Status::TOO_MANY_REQUESTS))
                }
                FetchOut::Fatal(e) => return JobOutcome::Fatal(e),
            };
            if resp.status == Status::FORBIDDEN {
                return JobOutcome::Fatal(CrawlError::Denied(resp.status));
            }
            let (ids, next) = parse_listing(&String::from_utf8_lossy(&resp.body));
            out.extend(ids);
            match next {
                Some(n) => url = n,
                None => return JobOutcome::Done(JobOut::Seeds(out)),
            }
        }
    }

    fn run_profile(&mut self, uid: UserId, shared: &Shared) -> JobOutcome {
        let resp = match self.fetch(EP_PROFILE, &format!("/profile/{uid}"), shared) {
            FetchOut::Page(resp) => resp,
            FetchOut::Suspended => return JobOutcome::Suspended,
            FetchOut::Fatal(e) => return JobOutcome::Fatal(e),
        };
        if resp.status == Status::FORBIDDEN {
            return JobOutcome::Fatal(CrawlError::Denied(resp.status));
        }
        let profile = parse_profile(&String::from_utf8_lossy(&resp.body));
        if profile.uid != Some(uid) {
            return JobOutcome::Fatal(CrawlError::BadPage("profile uid mismatch"));
        }
        self.maybe_issue_decoy(uid, profile.tombstoned, shared);
        JobOutcome::Done(JobOut::Profile(profile))
    }

    fn run_friends(&mut self, uid: UserId, shared: &Shared) -> JobOutcome {
        // Live worlds: every page carries the owner's generation stamp;
        // a stamp change mid-pagination restarts the read from page 0,
        // bounded at two restarts (then the spliced pages are kept,
        // flagged partial).
        let mut passes = 0u32;
        'paginate: loop {
            passes += 1;
            let refetch_pass = passes > 1;
            let mut out = Vec::new();
            let mut first_page = true;
            let mut list_gen: Option<u64> = None;
            let mut partial = false;
            let mut url = format!("/friends/{uid}");
            loop {
                if refetch_pass {
                    self.note_stale_refetch(shared);
                }
                let resp = match self.fetch(EP_FRIENDS, &url, shared) {
                    FetchOut::Page(resp) => resp,
                    // Mid-list suspension: discard the partial pages and
                    // hand the whole job to a survivor (deterministic —
                    // the account's own request order decided it).
                    FetchOut::Suspended => return JobOutcome::Suspended,
                    // Graceful degradation: keep what we got, flagged
                    // partial; first-page failures still propagate.
                    FetchOut::Fatal(e) => {
                        if out.is_empty() {
                            return JobOutcome::Fatal(e);
                        }
                        return JobOutcome::Done(JobOut::Friends(Some(out), true, list_gen));
                    }
                };
                if resp.status == Status::FORBIDDEN {
                    return JobOutcome::Done(JobOut::Friends(None, false, None));
                }
                let (ids, next, gen) = parse_listing_stamped(&String::from_utf8_lossy(&resp.body));
                if first_page {
                    first_page = false;
                    list_gen = gen;
                } else if gen != list_gen {
                    if passes < 3 {
                        continue 'paginate;
                    }
                    partial = true;
                }
                out.extend(ids);
                match next {
                    Some(n) => url = n,
                    None => return JobOutcome::Done(JobOut::Friends(Some(out), partial, list_gen)),
                }
            }
        }
    }

    fn run_circles(&mut self, uid: UserId, incoming: bool, shared: &Shared) -> JobOutcome {
        let dir = if incoming { "has" } else { "in" };
        let mut out = Vec::new();
        let mut url = format!("/circles/{uid}?dir={dir}");
        loop {
            let resp = match self.fetch(EP_CIRCLES, &url, shared) {
                FetchOut::Page(resp) => resp,
                FetchOut::Suspended => return JobOutcome::Suspended,
                FetchOut::Fatal(e) => return JobOutcome::Fatal(e),
            };
            if resp.status == Status::FORBIDDEN {
                return JobOutcome::Done(JobOut::Circles(None));
            }
            let (ids, next) = parse_listing(&String::from_utf8_lossy(&resp.body));
            out.extend(ids);
            match next {
                Some(n) => url = n,
                None => return JobOutcome::Done(JobOut::Circles(Some(out))),
            }
        }
    }
}

/// One batch's merged output: completed `(job, produced)` pairs plus
/// jobs left unfinished by suspended accounts (re-sharded next round).
type BatchOut = (Vec<(Job, JobOut)>, Vec<Job>);

/// What one account-queue produced, merged after the batch joins.
struct QueueOut {
    done: Vec<(Job, JobOut)>,
    leftover: Vec<Job>,
    fatal: Option<CrawlError>,
    /// Virtual time this queue consumed on its account's timeline.
    virtual_ms: u64,
    /// Requests this queue issued (all effort buckets).
    requests: u64,
}

/// Deterministic modeled makespan: greedy least-loaded assignment of
/// the per-queue virtual durations onto `workers` lanes, in queue
/// order (ties break to the lowest lane index).
fn makespan(durations: &[u64], workers: usize) -> u64 {
    if durations.is_empty() {
        return 0;
    }
    let lanes = workers.clamp(1, durations.len());
    let mut load = vec![0u64; lanes];
    for &d in durations {
        let lightest = (0..lanes).min_by_key(|&i| (load[i], i)).expect("non-empty lanes");
        load[lightest] += d;
    }
    load.into_iter().max().unwrap_or(0)
}

fn effort_requests(e: &Effort) -> u64 {
    e.auth_requests
        + e.seed_requests
        + e.profile_requests
        + e.friend_list_requests
        + e.message_requests
        + e.decoy_requests
}

/// A profile batch's results as `ProfileCommitted` records in canonical
/// (UserId-sorted) order, regardless of which account fetched what.
fn profile_records(done: Vec<(Job, JobOut)>) -> Vec<JournalRecord> {
    let mut results: Vec<(UserId, ScrapedProfile)> = done
        .into_iter()
        .map(|(job, out)| match (job, out) {
            (Job::Profile(uid), JobOut::Profile(p)) => (uid, p),
            _ => unreachable!("profile batch produced non-profile output"),
        })
        .collect();
    results.sort_by_key(|&(uid, _)| uid);
    results
        .into_iter()
        .map(|(uid, profile)| JournalRecord::ProfileCommitted { uid, profile })
        .collect()
}

/// Staged construction for a [`ParallelCrawler`].
pub struct ParallelCrawlerBuilder<E: Exchange + Send> {
    label: String,
    politeness: Politeness,
    adaptive: Option<AdaptiveStrategy>,
    workers: usize,
    max_accounts: usize,
    obs: Option<(Arc<CrawlerMetrics>, SchedMetrics)>,
    tracer: Option<Arc<FlightRecorder>>,
    retry_stats: Option<Arc<RetryStats>>,
    factory: Option<Box<dyn FnMut() -> AccountSeat<E>>>,
    journal: Option<Journal>,
}

impl<E: Exchange + Send> ParallelCrawlerBuilder<E> {
    pub fn new(label: &str) -> ParallelCrawlerBuilder<E> {
        ParallelCrawlerBuilder {
            label: label.to_string(),
            politeness: Politeness::default(),
            adaptive: None,
            workers: 1,
            max_accounts: 8,
            obs: None,
            tracer: None,
            retry_stats: None,
            factory: None,
            journal: None,
        }
    }

    /// OS threads driving account-queues. Affects wall-clock only —
    /// never results (that's the point).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    pub fn politeness(mut self, politeness: Politeness) -> Self {
        self.politeness = politeness;
        self
    }

    /// Enable detector-evasion maneuvers on every account (jittered
    /// pacing, warm-up, decoy mimicry). See [`AdaptiveStrategy`].
    pub fn adaptive(mut self, strategy: AdaptiveStrategy) -> Self {
        self.adaptive = Some(strategy);
        self
    }

    /// Record attacker-side telemetry (`crawler_*` fetch, cache, pacing,
    /// breaker and failover metrics, plus scheduler batch/throughput
    /// ones).
    /// Also picks up the registry's flight recorder: when tracing is
    /// enabled there, every issued request carries an `x-trace-id` and
    /// records its crawl-side root span.
    pub fn observability(mut self, registry: &Registry) -> Self {
        self.obs =
            Some((Arc::new(CrawlerMetrics::register(registry)), SchedMetrics::register(registry)));
        self.tracer = Some(Arc::clone(registry.tracer()));
        self
    }

    /// Fold transport-layer retries (from `ResilientExchange`s sharing
    /// this stats handle) into `Effort` and `crawler_fetch_total`, the
    /// refusal ledger into `crawler_refusals_total`, and absorbed sheds
    /// into each account's pacing.
    pub fn retry_stats(mut self, stats: Arc<RetryStats>) -> Self {
        self.retry_stats = Some(stats);
        self
    }

    /// Enable failover recruitment (the paper's 2→4→8 escalation),
    /// capped at `max_accounts` total. Recruitment is strictly serial
    /// and happens between batches, so platform-side account indices
    /// are deterministic.
    pub fn recruit_with(
        mut self,
        factory: impl FnMut() -> AccountSeat<E> + 'static,
        max_accounts: usize,
    ) -> Self {
        self.factory = Some(Box::new(factory));
        self.max_accounts = max_accounts;
        self
    }

    /// Journal every committed crawl operation to a durable append-only
    /// log (see [`crate::journal`]). Each `OsnAccess` op that commits
    /// seals one group of the records it applies; a process killed at
    /// any byte boundary resumes bit-identically via
    /// [`ParallelCrawlerBuilder::build_resumed`].
    pub fn journal(mut self, journal: Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Sign up + log in one fake account per seat (serially — the
    /// platform assigns account indices by arrival order) and return
    /// the ready scheduler.
    pub fn build(self, seats: Vec<AccountSeat<E>>) -> Result<ParallelCrawler<E>, CrawlError> {
        ParallelCrawler::assemble(seats, self)
    }

    /// Rebuild a crawler from a recovered journal state, **without**
    /// re-enrolling accounts: one fresh seat per journaled lane (same
    /// transport wiring as the original — e.g. `.with_attempt_seq()`
    /// resilient exchanges over the same platform), whose transport,
    /// clock, breaker, effort and trace state are all restored from the
    /// journal. The resumed crawler continues exactly where the last
    /// durable commit left off.
    pub fn build_resumed(
        self,
        state: &ResumeState,
        seats: Vec<AccountSeat<E>>,
    ) -> Result<ParallelCrawler<E>, CrawlError> {
        ParallelCrawler::assemble_resumed(state, seats, self)
    }
}

/// The parallel attack crawler. Implements [`OsnAccess`]; the
/// methodology code (hsp-core) stays sequential-looking and opts into
/// concurrency through the `prefetch_*` batch hints.
pub struct ParallelCrawler<E: Exchange + Send> {
    accounts: Vec<Mutex<AccountWorker<E>>>,
    workers: usize,
    shared: Shared,
    factory: Option<Box<dyn FnMut() -> AccountSeat<E>>>,
    max_accounts: usize,
    /// The shared [`RetryStats`] as last synced into the retry metric
    /// and the refusal ledger.
    synced: Mutex<RetryStatsSnapshot>,
    sched_metrics: Option<SchedMetrics>,
    /// The committed crawl state: everything sealed so far, changed only
    /// by [`ResumeState::apply`] — exactly what the journal folds to.
    state: ResumeState,
    /// The live scheduler state: message round-robin cursor, modeled
    /// wall clock, recruits, reconcile re-fetches. Its `retry_stats` is
    /// read from the shared stats at each commit.
    sched: SchedState,
    /// Durable crawl journal (crash-only operation); `None` = volatile.
    journal: Option<Journal>,
}

/// Journal failures surface as crawl errors: `Killed` is the injected
/// kill point (the crash harness's "process died here"); anything else
/// is a real durability failure the crawl must not paper over.
fn map_journal_err(e: JournalError) -> CrawlError {
    match e {
        JournalError::Killed => CrawlError::BadPage("journal kill point"),
        _ => CrawlError::BadPage("journal append failed"),
    }
}

impl<E: Exchange + Send> ParallelCrawler<E> {
    pub fn builder(label: &str) -> ParallelCrawlerBuilder<E> {
        ParallelCrawlerBuilder::new(label)
    }

    /// The paper's plain crawl: one clockless seat per exchange, the
    /// builder's defaults otherwise (`workers = 1`, no recruitment).
    pub fn new(exchanges: Vec<E>, label: &str) -> Result<ParallelCrawler<E>, CrawlError> {
        let seats = exchanges.into_iter().map(|exchange| AccountSeat { exchange, clock: None });
        ParallelCrawler::builder(label).build(seats.collect())
    }

    /// A crawler with no accounts yet, the builder's settings, and
    /// `state` as its committed state.
    fn from_builder(
        state: ResumeState,
        builder: ParallelCrawlerBuilder<E>,
        seats: usize,
    ) -> ParallelCrawler<E> {
        let (metrics, sched_metrics) = match builder.obs {
            Some((m, s)) => (Some(m), Some(s)),
            None => (None, None),
        };
        if let Some(m) = &sched_metrics {
            m.workers.set(builder.workers as i64);
        }
        ParallelCrawler {
            accounts: Vec::new(),
            workers: builder.workers,
            shared: Shared {
                politeness: builder.politeness,
                adaptive: builder.adaptive,
                budget: 8 + 2 * builder.max_accounts.max(seats),
                metrics,
                tracer: builder.tracer,
                retry_stats: builder.retry_stats,
            },
            factory: builder.factory,
            max_accounts: builder.max_accounts,
            synced: Mutex::new(RetryStatsSnapshot::default()),
            sched_metrics,
            sched: state.sched,
            state,
            journal: builder.journal,
        }
    }

    fn assemble(
        seats: Vec<AccountSeat<E>>,
        builder: ParallelCrawlerBuilder<E>,
    ) -> Result<ParallelCrawler<E>, CrawlError> {
        let state = ResumeState { label: builder.label.clone(), ..ResumeState::default() };
        let mut crawler = Self::from_builder(state, builder, seats.len());
        for (i, seat) in seats.into_iter().enumerate() {
            let username = format!("{}-{i}", crawler.state.label);
            crawler.enroll(seat, username)?;
        }
        if crawler.accounts.is_empty() {
            return Err(CrawlError::BadPage("no accounts"));
        }
        crawler.sync_retry_metric();
        crawler.state.lanes = crawler.lane_states();
        crawler.state.sched = crawler.sched_state();
        crawler.write_base_group()?;
        Ok(crawler)
    }

    /// Rebuild from a journal's folded [`ResumeState`]; see
    /// [`ParallelCrawlerBuilder::build_resumed`].
    fn assemble_resumed(
        state: &ResumeState,
        seats: Vec<AccountSeat<E>>,
        builder: ParallelCrawlerBuilder<E>,
    ) -> Result<ParallelCrawler<E>, CrawlError> {
        if seats.len() != state.lanes.len() {
            return Err(CrawlError::BadPage("resume seat count mismatch"));
        }
        if state.lanes.is_empty() {
            return Err(CrawlError::BadPage("no accounts"));
        }
        // The journaled label wins: recruit usernames ("{label}-rN")
        // must keep matching the original run's.
        let mut crawler = Self::from_builder(state.clone(), builder, seats.len());
        // Transport retry ledger: restore the shared stats handle and
        // mark it synced, so metric deltas only count post-resume
        // activity (no double-billing on restart).
        if let Some(stats) = &crawler.shared.retry_stats {
            stats.restore(&state.sched.retry_stats);
            *crawler.synced.get_mut().expect("synced lock") = state.sched.retry_stats;
        }
        for (seat, lane) in seats.into_iter().zip(&state.lanes) {
            let mut worker = AccountWorker::new(seat, lane.clone());
            worker.exchange.restore_transport_state(&lane.transport);
            // A fresh seat clock starts at zero; fast-forward it to the
            // journaled timeline.
            worker.clock.advance_ms(lane.clock_ms);
            crawler.accounts.push(Mutex::new(worker));
        }
        crawler.write_base_group()?;
        Ok(crawler)
    }

    /// Seal the committed state as the initial `Base` group if a journal
    /// is attached and still empty (a journal reopened via
    /// [`Journal::create_with_base`] already carries one).
    fn write_base_group(&mut self) -> Result<(), CrawlError> {
        let Some(journal) = self.journal.as_mut().filter(|j| j.records_written() == 0) else {
            return Ok(());
        };
        journal
            .append(&JournalRecord::Base { state: self.state.clone() })
            .map_err(map_journal_err)?;
        journal.commit("base").map_err(map_journal_err)
    }

    /// Sign up and log in one seat, then add it to the fleet.
    fn enroll(&mut self, seat: AccountSeat<E>, username: String) -> Result<(), CrawlError> {
        let lane = LaneState {
            index: self.accounts.len() as u64,
            username,
            password: "hunter2".to_string(),
            ..LaneState::default()
        };
        let mut worker = AccountWorker::new(seat, lane);
        worker.enroll(&self.shared)?;
        self.accounts.push(Mutex::new(worker));
        Ok(())
    }

    /// Number of fake accounts in use (live + suspended).
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// Accounts still in rotation.
    pub fn live_account_count(&self) -> usize {
        self.live_indices().len()
    }

    /// The widest pushback multiplier any account is pacing at (≥ 1).
    pub fn politeness_widen_factor(&self) -> u64 {
        self.accounts
            .iter()
            .map(|a| a.lock().expect("account lock").lane.pacing.widen_factor.max(1))
            .max()
            .unwrap_or(1)
    }

    /// Intentional application-level auth-POST retries issued so far
    /// (signup/login resent after a transport failure or a refusal —
    /// safe because both are application-idempotent).
    pub fn auth_retries(&self) -> u64 {
        self.accounts.iter().map(|a| a.lock().expect("account lock").auth_retries).sum()
    }

    /// Every lane's state as of now (see [`AccountWorker::sync_lane`]).
    fn lane_states(&self) -> Vec<LaneState> {
        self.accounts.iter().map(|a| a.lock().expect("account lock").sync_lane().clone()).collect()
    }

    /// The scheduler state as of now, with the shared retry counters.
    fn sched_state(&self) -> SchedState {
        let retry_stats = self.shared.retry_stats.as_ref().map(|s| s.export()).unwrap_or_default();
        SchedState { retry_stats, ..self.sched }
    }

    /// The crawler's committed state: what its journal folds to, and
    /// what [`ParallelCrawlerBuilder::build_resumed`] rebuilds an
    /// identical crawler from. An operation that failed before it
    /// committed left nothing here.
    pub fn resume_state(&self) -> ResumeState {
        self.state.clone()
    }

    /// Commit one completed crawl op: its data `records`, then a `Lane`
    /// upsert per lane that moved since the last commit (a new recruit
    /// included), the scheduler state and the `Commit` seal. The group
    /// is journaled in one write when a journal is attached, then
    /// applied to the committed state by [`ResumeState::apply`].
    fn commit(
        &mut self,
        op: &'static str,
        mut records: Vec<JournalRecord>,
    ) -> Result<(), CrawlError> {
        for (i, account) in self.accounts.iter().enumerate() {
            let mut worker = account.lock().expect("account lock");
            let lane = worker.sync_lane();
            if self.state.lanes.get(i) != Some(lane) {
                records.push(JournalRecord::Lane { lane: lane.clone() });
            }
        }
        records.push(JournalRecord::Sched { sched: self.sched_state() });
        if let Some(journal) = &mut self.journal {
            for record in &records {
                journal.append(record).map_err(map_journal_err)?;
            }
            journal.commit(op).map_err(map_journal_err)?;
        }
        let tombstoned = self.state.tombstoned.len();
        for record in records {
            self.state.apply(record);
        }
        if let Some(m) = &self.shared.metrics {
            m.tombstones.add((self.state.tombstoned.len() - tombstoned) as u64);
        }
        Ok(())
    }

    /// The attached journal, if any (tests, overhead accounting).
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Mutable journal access — e.g. to force a deferred group fsync
    /// ([`Journal::sync`]) before reading [`Journal::time_spent`].
    pub fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    fn live_indices(&self) -> Vec<usize> {
        self.accounts
            .iter()
            .enumerate()
            .filter(|(_, a)| !a.lock().expect("account lock").lane.suspended)
            .map(|(i, _)| i)
            .collect()
    }

    /// Fold transport retries accumulated since the last sync into
    /// `crawler_fetch_total{endpoint="retry"}`, and the refusal ledger
    /// into `crawler_refusals_total{source=edge|fault|throttle|shed}`.
    fn sync_retry_metric(&self) {
        let Some(stats) = &self.shared.retry_stats else { return };
        let now = stats.export();
        let last = std::mem::replace(&mut *self.synced.lock().expect("synced lock"), now);
        if let Some(m) = &self.shared.metrics {
            m.fetch_retry.add(now.retries.saturating_sub(last.retries));
            m.refusal("edge", now.edge_limited.saturating_sub(last.edge_limited));
            m.refusal("fault", now.fault_rate_limited.saturating_sub(last.fault_rate_limited));
            m.refusal("throttle", now.throttled.saturating_sub(last.throttled));
            m.refusal("shed", now.sheds.saturating_sub(last.sheds));
        }
    }

    /// Double the fleet (serially) after a suspension, capped at
    /// `max_accounts`. No-op without a factory.
    fn recruit(&mut self) -> Result<(), CrawlError> {
        let Some(mut factory) = self.factory.take() else { return Ok(()) };
        let target = (self.accounts.len() * 2).min(self.max_accounts);
        let mut result = Ok(());
        while self.accounts.len() < target {
            let seat = factory();
            let username = format!("{}-r{}", self.state.label, self.sched.recruited);
            self.sched.recruited += 1;
            match self.enroll(seat, username) {
                Ok(()) => {
                    if let Some(m) = &self.shared.metrics {
                        m.accounts_recruited.inc();
                    }
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.factory = Some(factory);
        result
    }

    /// Run one sharded batch: each `(account, queue)` is executed by
    /// whichever thread steals it, whole; results merge in queue order.
    fn run_queues(&mut self, queues: Vec<(usize, Vec<Job>)>) -> Result<BatchOut, CrawlError> {
        let lanes = queues.len();
        if lanes == 0 {
            return Ok((Vec::new(), Vec::new()));
        }
        let started = Instant::now();
        let threads = self.workers.clamp(1, lanes);
        let accounts = &self.accounts;
        let shared = &self.shared;
        let run_queue = |(account, jobs): &(usize, Vec<Job>)| -> QueueOut {
            let mut worker = accounts[*account].lock().expect("account lock");
            let t0 = worker.clock.now_ms();
            let e0 = worker.lane.effort;
            let mut out = QueueOut {
                done: Vec::with_capacity(jobs.len()),
                leftover: Vec::new(),
                fatal: None,
                virtual_ms: 0,
                requests: 0,
            };
            for (pos, &job) in jobs.iter().enumerate() {
                match worker.run(job, shared) {
                    JobOutcome::Done(produced) => out.done.push((job, produced)),
                    JobOutcome::Suspended => {
                        out.leftover.extend_from_slice(&jobs[pos..]);
                        break;
                    }
                    JobOutcome::Fatal(e) => {
                        out.fatal = Some(e);
                        break;
                    }
                }
            }
            out.virtual_ms = worker.clock.now_ms() - t0;
            out.requests = effort_requests(&worker.lane.effort) - effort_requests(&e0);
            out
        };
        let outs: Vec<QueueOut> = if threads == 1 {
            // No point spawning for one lane — run inline in queue order.
            queues.iter().map(run_queue).collect()
        } else {
            let next = AtomicUsize::new(0);
            let slots: Vec<Mutex<Option<QueueOut>>> =
                (0..lanes).map(|_| Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for _ in 0..threads {
                    s.spawn(|| loop {
                        let q = next.fetch_add(1, Ordering::SeqCst);
                        if q >= lanes {
                            break;
                        }
                        let out = run_queue(&queues[q]);
                        *slots[q].lock().expect("slot lock") = Some(out);
                    });
                }
            });
            slots
                .into_iter()
                .map(|s| s.into_inner().expect("slot lock").expect("queue ran"))
                .collect()
        };
        // Ledger what the batch's exchanges absorbed, even if it failed.
        self.sync_retry_metric();
        // Deterministic merge, in queue order.
        let mut done = Vec::new();
        let mut leftover = Vec::new();
        let mut durations = Vec::with_capacity(lanes);
        let mut requests = 0u64;
        for out in outs {
            durations.push(out.virtual_ms);
            requests += out.requests;
            if let Some(e) = out.fatal {
                return Err(e);
            }
            done.extend(out.done);
            leftover.extend(out.leftover);
        }
        let batch_makespan = makespan(&durations, self.workers);
        self.sched.modeled_wall_ms += batch_makespan;
        if let Some(m) = &self.sched_metrics {
            let elapsed = started.elapsed();
            m.prefetch_batch_us.record(elapsed.as_micros() as u64);
            let secs = elapsed.as_secs_f64();
            if secs > 0.0 {
                m.pages_per_sec.set((requests as f64 / secs) as i64);
            }
            if let Some(rate) = requests.saturating_mul(1_000).checked_div(batch_makespan) {
                m.virtual_pages_per_sec.set(rate as i64);
            }
        }
        Ok((done, leftover))
    }

    /// Shard `jobs` over the live accounts (item `i` → live account
    /// `i mod L`), run until every job completed, recruiting and
    /// redistributing when accounts die mid-batch.
    fn run_sharded(&mut self, jobs: Vec<Job>) -> Result<Vec<(Job, JobOut)>, CrawlError> {
        let mut pending = jobs;
        let mut done = Vec::new();
        while !pending.is_empty() {
            let mut live = self.live_indices();
            if live.is_empty() {
                self.recruit()?;
                live = self.live_indices();
                if live.is_empty() {
                    return Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS));
                }
            }
            let lanes = live.len();
            let mut queues: Vec<(usize, Vec<Job>)> =
                live.into_iter().map(|a| (a, Vec::new())).collect();
            for (i, &job) in pending.iter().enumerate() {
                queues[i % lanes].1.push(job);
            }
            let (batch_done, leftover) = self.run_queues(queues)?;
            done.extend(batch_done);
            if !leftover.is_empty() {
                // An account died mid-batch: escalate the fleet (the
                // paper's 2→4→8) before redistributing.
                self.recruit()?;
            }
            pending = leftover;
        }
        Ok(done)
    }

    fn total_effort(&self) -> Effort {
        let mut total = Effort::default();
        for account in &self.accounts {
            let e = account.lock().expect("account lock").lane.effort;
            total.auth_requests += e.auth_requests;
            total.seed_requests += e.seed_requests;
            total.profile_requests += e.profile_requests;
            total.friend_list_requests += e.friend_list_requests;
            total.message_requests += e.message_requests;
            total.captcha_challenges += e.captcha_challenges;
            total.captcha_virtual_ms += e.captcha_virtual_ms;
            total.decoy_requests += e.decoy_requests;
            total.stale_refetch_requests += e.stale_refetch_requests;
        }
        total.stale_refetch_requests += self.sched.stale_refetches;
        total.tombstones = self.state.tombstoned.len() as u64;
        if let Some(stats) = &self.shared.retry_stats {
            total.retry_requests = stats.retries();
        }
        total
    }
}

impl<E: Exchange + Send> OsnAccess for ParallelCrawler<E> {
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError> {
        if let Some(seeds) = self.state.seeds.get(&school) {
            return Ok(seeds.clone());
        }
        // One seed sweep per live account, concurrently: each account
        // pages its own search sample, so the per-account page
        // sequences are the same at any worker count.
        let queues: Vec<(usize, Vec<Job>)> =
            self.live_indices().into_iter().map(|a| (a, vec![Job::Seeds(school)])).collect();
        let (done, leftover) = self.run_queues(queues)?;
        if !leftover.is_empty() {
            return Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS));
        }
        let mut seen: Vec<UserId> = done
            .into_iter()
            .flat_map(|(_, out)| match out {
                JobOut::Seeds(ids) => ids,
                _ => unreachable!("seed queue produced non-seed output"),
            })
            .collect();
        seen.sort_unstable();
        seen.dedup();
        self.commit(
            "collect_seeds",
            vec![JournalRecord::SeedsCollected { school, seeds: seen.clone() }],
        )?;
        Ok(seen)
    }

    fn prefetch_profiles(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        let mut todo: Vec<UserId> =
            uids.iter().copied().filter(|u| !self.state.profiles.contains_key(u)).collect();
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return Ok(());
        }
        if let Some(m) = &self.shared.metrics {
            m.cache_profile_misses.add(todo.len() as u64);
        }
        let done = self.run_sharded(todo.into_iter().map(Job::Profile).collect())?;
        self.commit("prefetch_profiles", profile_records(done))
    }

    fn prefetch_friends(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        // (uid, friend list, partial?, world-generation stamp)
        type FriendsFetch = (UserId, Option<Vec<UserId>>, bool, Option<u64>);
        let mut todo: Vec<UserId> =
            uids.iter().copied().filter(|u| !self.state.friends.contains_key(u)).collect();
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return Ok(());
        }
        if let Some(m) = &self.shared.metrics {
            m.cache_friends_misses.add(todo.len() as u64);
        }
        let done = self.run_sharded(todo.into_iter().map(Job::Friends).collect())?;
        let mut results: Vec<FriendsFetch> = done
            .into_iter()
            .map(|(job, out)| match (job, out) {
                (Job::Friends(uid), JobOut::Friends(list, partial, gen)) => {
                    (uid, list, partial, gen)
                }
                _ => unreachable!("friends batch produced non-friends output"),
            })
            .collect();
        results.sort_by_key(|&(uid, _, _, _)| uid);
        // Pair verification at commit: a friend list whose generation
        // stamp disagrees with the committed profile's means the user
        // mutated between the two fetches. Reconcile with one bounded
        // profile re-fetch round (canonical order — deterministic at
        // any worker count).
        let mut records = Vec::with_capacity(results.len());
        let mut conflicted: Vec<UserId> = Vec::new();
        for (uid, friends, partial, gen) in results {
            if partial {
                if let Some(m) = &self.shared.metrics {
                    m.partial_friend_lists.inc();
                }
            }
            if let Some(lg) = gen {
                let profile_gen = self.state.profiles.get(&uid).and_then(|p| p.generation);
                if profile_gen.is_some_and(|pg| pg != lg) {
                    conflicted.push(uid);
                }
            }
            records.push(JournalRecord::FriendsCommitted { uid, friends, partial, gen });
        }
        if !conflicted.is_empty() {
            self.sched.stale_refetches += conflicted.len() as u64;
            if let Some(m) = &self.shared.metrics {
                m.stale_refetches.add(conflicted.len() as u64);
            }
            let done = self.run_sharded(conflicted.into_iter().map(Job::Profile).collect())?;
            records.extend(profile_records(done));
        }
        self.commit("prefetch_friends", records)
    }

    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError> {
        if let Some(p) = self.state.profiles.get(&uid) {
            if let Some(m) = &self.shared.metrics {
                m.cache_profile_hits.inc();
            }
            return Ok(p.clone());
        }
        // Not prefetched: run a one-item batch through the same
        // machinery (failover and recruitment included).
        self.prefetch_profiles(&[uid])?;
        self.state.profiles.get(&uid).cloned().ok_or(CrawlError::BadPage("profile not fetched"))
    }

    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
        if let Some(f) = self.state.friends.get(&uid) {
            if let Some(m) = &self.shared.metrics {
                m.cache_friends_hits.inc();
            }
            return Ok(f.clone());
        }
        self.prefetch_friends(&[uid])?;
        self.state.friends.get(&uid).cloned().ok_or(CrawlError::BadPage("friends not fetched"))
    }

    fn circles(&mut self, uid: UserId, incoming: bool) -> Result<Option<Vec<UserId>>, CrawlError> {
        if let Some(c) = self.state.circles_of(uid, incoming) {
            if let Some(m) = &self.shared.metrics {
                m.cache_circles_hits.inc();
            }
            return Ok(c.clone());
        }
        if let Some(m) = &self.shared.metrics {
            m.cache_circles_misses.inc();
        }
        let done = self.run_sharded(vec![Job::Circles(uid, incoming)])?;
        let records = done
            .into_iter()
            .map(|(job, out)| match (job, out) {
                (Job::Circles(uid, incoming), JobOut::Circles(members)) => {
                    JournalRecord::CirclesCommitted { uid, incoming, members }
                }
                _ => unreachable!("circles batch produced non-circles output"),
            })
            .collect();
        self.commit("circles", records)?;
        self.state
            .circles_of(uid, incoming)
            .cloned()
            .ok_or(CrawlError::BadPage("circles not fetched"))
    }

    fn send_message(&mut self, uid: UserId, body: &str) -> Result<bool, CrawlError> {
        // Messages are rare one-offs; rotate over live accounts.
        let live = self.live_indices();
        if live.is_empty() {
            self.recruit()?;
        }
        let live = self.live_indices();
        let Some(&account) = live.get(self.sched.rr as usize % live.len().max(1)) else {
            return Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS));
        };
        self.sched.rr += 1;
        let mut worker = self.accounts[account].lock().expect("account lock");
        let t0 = worker.clock.now_ms();
        worker.advance_politeness(&self.shared);
        let trace = worker.next_trace_ctx(&self.shared);
        let begin_ms = worker.clock.now_ms();
        let mut req = Request::post_form(format!("/message/{uid}"), &[("body", body)])
            .header(H_VIRTUAL_NOW, begin_ms.to_string());
        if let Some((_, ctx)) = &trace {
            req = req.header(H_TRACE_ID, ctx.header_value());
        }
        let result = worker.exchange.exchange(req);
        if let Some((tracer, ctx)) = &trace {
            record_root_span(
                tracer,
                ctx,
                EP_MESSAGE,
                begin_ms,
                worker.clock.now_ms(),
                result.as_ref().ok(),
            );
        }
        let resp = result?;
        worker.count_request(EP_MESSAGE, &self.shared);
        worker.absorb_captcha(&resp, &self.shared);
        let outcome = match resp.status {
            s if s.is_success() => Ok(true),
            Status::FORBIDDEN => Ok(false),
            Status::TOO_MANY_REQUESTS if resp.headers.contains(H_ACCOUNT_SUSPENDED) => {
                worker.mark_suspended(&self.shared);
                Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS))
            }
            s => Err(CrawlError::Denied(s)),
        };
        let elapsed = worker.clock.now_ms() - t0;
        drop(worker);
        self.sched.modeled_wall_ms += elapsed;
        self.sync_retry_metric();
        if matches!(outcome, Err(CrawlError::Denied(Status::TOO_MANY_REQUESTS))) {
            self.recruit()?;
        }
        if outcome.is_ok() {
            self.commit("send_message", Vec::new())?;
        }
        outcome
    }

    fn effort(&self) -> Effort {
        self.sync_retry_metric();
        self.total_effort()
    }

    fn incomplete_friends(&self) -> Vec<UserId> {
        self.state.incomplete.iter().copied().collect()
    }

    fn tombstoned_users(&self) -> Vec<UserId> {
        self.state.tombstoned.iter().copied().collect()
    }

    fn checkpoint(&self) -> CrawlSnapshot {
        let friends = self
            .state
            .friends
            .iter()
            .filter(|(uid, _)| !self.state.incomplete.contains(uid))
            .map(|(&uid, friends)| (uid, friends.clone()))
            .collect();
        CrawlSnapshot {
            seeds: self.state.seeds.clone(),
            profiles: self.state.profiles.clone(),
            friends,
            effort: self.effort(),
            aborted_at: None,
        }
    }

    /// The modeled makespan at `workers` lanes: per-batch greedy
    /// assignments of the account queues' virtual durations, summed.
    fn virtual_elapsed_ms(&self) -> u64 {
        self.sched.modeled_wall_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_http::DirectExchange;
    use hsp_platform::{FaultPlan, Platform, PlatformConfig};
    use hsp_policy::FacebookPolicy;
    use hsp_synth::{generate, ScenarioConfig};

    fn tiny_platform(faults: FaultPlan) -> (Arc<Platform>, hsp_synth::Scenario) {
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig { faults, ..PlatformConfig::default() },
        );
        (platform, scenario)
    }

    fn parallel(
        platform: &Arc<Platform>,
        accounts: usize,
        workers: usize,
    ) -> ParallelCrawler<DirectExchange> {
        let handler = platform.into_handler();
        let seats = (0..accounts)
            .map(|_| AccountSeat { exchange: DirectExchange::new(handler.clone()), clock: None })
            .collect();
        let factory_handler = handler.clone();
        ParallelCrawler::builder("spy")
            .workers(workers)
            .observability(&platform.obs)
            .recruit_with(
                move || AccountSeat {
                    exchange: DirectExchange::new(factory_handler.clone()),
                    clock: None,
                },
                8,
            )
            .build(seats)
            .expect("enrolled")
    }

    /// The core determinism claim, in miniature: sharded prefetches at
    /// 1 and 4 workers produce identical caches, effort, and virtual
    /// wall-clock model inputs.
    #[test]
    fn worker_count_never_changes_results() {
        let run = |workers: usize| {
            let (platform, s) = tiny_platform(FaultPlan::default());
            let mut crawler = parallel(&platform, 3, workers);
            let seeds = crawler.collect_seeds(s.school).unwrap();
            crawler.prefetch_profiles(&seeds).unwrap();
            crawler.prefetch_friends(&seeds).unwrap();
            let snap = crawler.checkpoint();
            (seeds, snap.to_json().unwrap(), crawler.effort())
        };
        let (seeds_1, snap_1, effort_1) = run(1);
        let (seeds_4, snap_4, effort_4) = run(4);
        assert_eq!(seeds_1, seeds_4);
        assert_eq!(snap_1, snap_4, "checkpoints must be bit-identical across worker counts");
        assert_eq!(effort_1, effort_4);
    }

    #[test]
    fn suspension_mid_batch_fails_over_and_recruits() {
        // Each run gets a fresh platform (suspension is server-side
        // state), so build per-run platforms instead of reusing one.
        let run_fresh = |workers: usize| {
            let (platform, s) = tiny_platform(FaultPlan {
                enabled: true,
                suspend_account_after: vec![10],
                ..FaultPlan::default()
            });
            let mut crawler = parallel(&platform, 2, workers);
            let seeds = crawler.collect_seeds(s.school).unwrap();
            crawler.prefetch_profiles(&seeds).unwrap();
            crawler.prefetch_friends(&seeds).unwrap();
            (
                crawler.checkpoint().to_json().unwrap(),
                crawler.account_count(),
                crawler.live_account_count(),
            )
        };
        let (snap_1, total_1, live_1) = run_fresh(1);
        let (snap_8, total_8, live_8) = run_fresh(8);
        assert_eq!(snap_1, snap_8, "failover must not depend on worker count");
        assert_eq!((total_1, live_1), (total_8, live_8));
        assert!(total_1 > 2, "the fleet escalated");
        assert_eq!(live_1 + 1, total_1, "exactly one account suspended");
    }

    /// A crawler equals the fold of its own journal: chaos faults, live
    /// churn, and a seat suspended mid-batch so the fleet recruits and
    /// grows its lanes, at 1 and 4 workers.
    #[test]
    fn crawler_equals_the_fold_of_its_own_journal() {
        use crate::journal::{fold_state, recover, state_digest};
        use hsp_http::{ResilientExchange, RetryPolicy};

        let run = |workers: usize| {
            let cfg = ScenarioConfig::tiny();
            let scenario = generate(&cfg);
            let churn = hsp_synth::ChurnModel::from_scenario(&cfg).scaled(16.0);
            let platform = Platform::new(
                Arc::new(scenario.network.clone()),
                Arc::new(FacebookPolicy::new()),
                PlatformConfig {
                    faults: FaultPlan { suspend_account_after: vec![10], ..FaultPlan::chaos() },
                    mutations: hsp_platform::MutationPlan {
                        enabled: true,
                        horizon_ms: 7_200_000,
                        signup_per_mille: churn.signup_per_mille,
                        friend_per_mille: churn.friend_per_mille,
                        defriend_per_mille: churn.defriend_per_mille,
                        privacy_flip_per_mille: churn.privacy_flip_per_mille,
                        deactivate_per_mille: churn.deactivate_per_mille,
                        rollover_at_ms: vec![3_600_000],
                        ..hsp_platform::MutationPlan::default()
                    },
                    ..PlatformConfig::default()
                },
            );
            let handler = platform.into_handler();
            let stats = Arc::new(RetryStats::default());
            let seat = {
                let (handler, stats) = (handler.clone(), Arc::clone(&stats));
                let mut next = 0u64;
                move || {
                    next += 1;
                    let clock = VirtualClock::shared();
                    AccountSeat {
                        exchange: ResilientExchange::with_stats(
                            DirectExchange::new(handler.clone()),
                            RetryPolicy::seeded(next),
                            Arc::clone(&clock),
                            Arc::clone(&stats),
                        )
                        .with_attempt_seq(),
                        clock: Some(clock),
                    }
                }
            };
            let mut seat = seat;
            let seats = vec![seat(), seat()];
            let dir = std::env::temp_dir().join("hsp-scheduler-fold-test");
            std::fs::create_dir_all(&dir).expect("tmp dir");
            let path = dir.join(format!("fold-{workers}.wal"));
            let mut crawler = ParallelCrawler::builder("fold")
                .workers(workers)
                .observability(&platform.obs)
                .retry_stats(stats)
                .recruit_with(seat, 8)
                .journal(Journal::create(&path).expect("journal"))
                .build(seats)
                .expect("enrolled");
            let seeds = crawler.collect_seeds(scenario.school).unwrap();
            crawler.prefetch_profiles(&seeds).unwrap();
            crawler.prefetch_friends(&seeds).unwrap();
            let mut fof: Vec<UserId> = seeds
                .iter()
                .filter_map(|u| crawler.friends(*u).unwrap())
                .flatten()
                .take(60)
                .collect();
            fof.sort_unstable();
            crawler.prefetch_profiles(&fof).unwrap();
            crawler.prefetch_friends(&fof).unwrap();
            crawler.circles(seeds[0], false).unwrap();
            crawler.circles(seeds[1], true).unwrap();
            for &u in seeds.iter().take(3) {
                let _ = crawler.send_message(u, "hi");
            }
            crawler.prefetch_profiles(&[scenario.roster()[0]]).unwrap();
            assert!(crawler.account_count() > 2, "the fleet recruited");
            let expected = state_digest(&crawler.resume_state());
            drop(crawler);
            let log = recover(&path).expect("recover");
            let folded = fold_state(&log.records).expect("fold").expect("state");
            let _ = std::fs::remove_file(&path);
            assert_eq!(state_digest(&folded), expected, "{workers} workers: fold != crawler");
        };
        run(1);
        run(4);
    }

    /// A crawler rebuilt from its committed state over fresh seats and a
    /// fresh registry restores every seat's lane state and the scheduler
    /// state, and bills nothing twice. `resume_state()` cannot show a
    /// dropped restore: it returns the committed state without reading
    /// the seats, so this reads them.
    #[test]
    fn a_resumed_crawler_restores_every_seat_and_bills_nothing_twice() {
        use crate::journal::PacingState;
        use hsp_http::{Handler, ResilientExchange, RetryPolicy};
        type Seat<E> = fn(&Arc<dyn Handler>, u64, &Arc<RetryStats>) -> AccountSeat<E>;

        fn check<E: Exchange + Send + 'static>(
            seat: Seat<E>,
            config: PlatformConfig,
            adaptive: Option<AdaptiveStrategy>,
        ) -> ResumeState {
            let scenario = generate(&ScenarioConfig::tiny());
            let platform = Platform::new(
                Arc::new(scenario.network.clone()),
                Arc::new(FacebookPolicy::new()),
                config,
            );
            platform.obs.enable_tracing(1 << 12);
            let handler = platform.into_handler();
            let builder = |registry: &Registry, stats: &Arc<RetryStats>| {
                let (handler, factory_stats) = (handler.clone(), Arc::clone(stats));
                let mut next = 100;
                let builder = ParallelCrawler::builder("resume")
                    .observability(registry)
                    .retry_stats(Arc::clone(stats))
                    .recruit_with(
                        move || {
                            next += 1;
                            seat(&handler, next, &factory_stats)
                        },
                        8,
                    );
                match adaptive {
                    Some(strategy) => builder.adaptive(strategy),
                    None => builder,
                }
            };
            let stats = Arc::new(RetryStats::default());
            let seats = (0..2).map(|n| seat(&handler, n, &stats)).collect();
            let mut crawler = builder(&platform.obs, &stats).build(seats).expect("enrolled");
            let seeds = crawler.collect_seeds(scenario.school).unwrap();
            crawler.prefetch_profiles(&seeds).unwrap();
            crawler.prefetch_friends(&seeds).unwrap();
            let mut fof: Vec<UserId> = seeds
                .iter()
                .filter_map(|u| crawler.friends(*u).unwrap())
                .flatten()
                .take(60)
                .collect();
            fof.sort_unstable();
            crawler.prefetch_profiles(&fof).unwrap();
            crawler.prefetch_friends(&fof).unwrap();
            for &u in seeds.iter().take(3) {
                let _ = crawler.send_message(u, "hi");
            }
            let state = crawler.resume_state();
            assert!(state.lanes.len() > 2, "a recruit joined");
            assert!(state.lanes.iter().any(|l| l.suspended), "a seat was suspended");
            assert!(state.lanes.iter().all(|l| l.trace_ordinal > 0), "every seat traced");
            assert!(state.sched.rr > 0 && state.sched.recruited > 0);

            let registry = Registry::new();
            let fresh = Arc::new(RetryStats::default());
            let seats = (0..state.lanes.len()).map(|n| seat(&handler, 50 + n as u64, &fresh));
            let resumed =
                builder(&registry, &fresh).build_resumed(&state, seats.collect()).expect("resumed");
            assert_eq!(resumed.lane_states(), state.lanes, "a seat's state was not restored");
            assert_eq!(resumed.sched_state(), state.sched, "the scheduler was not restored");
            let _ = resumed.effort();
            let snap = registry.snapshot();
            assert_eq!(snap.counter("crawler_fetch_total{endpoint=\"retry\"}"), 0);
            for (name, &n) in &snap.counters {
                if name.starts_with("crawler_refusals_total") {
                    assert_eq!(n, 0, "{name} billed again on resume");
                }
            }
            state
        }

        fn clockless(
            h: &Arc<dyn Handler>,
            _: u64,
            _: &Arc<RetryStats>,
        ) -> AccountSeat<DirectExchange> {
            AccountSeat { exchange: DirectExchange::new(h.clone()), clock: None }
        }

        /// Answers three of every 40 requests the way only a server's
        /// edge or the sybil detector does (an edge 429, a throttle 429,
        /// a shed 503), so the retry layer ledgers every refusal source.
        struct Refusing {
            inner: DirectExchange,
            calls: u64,
        }

        impl Exchange for Refusing {
            fn exchange(&mut self, req: Request) -> hsp_http::Result<Response> {
                use hsp_http::resilient::{H_EDGE_LIMITED, H_RETRY_AFTER, H_THROTTLED};
                self.calls += 1;
                let (status, header) = match self.calls % 40 {
                    10 => (Status::TOO_MANY_REQUESTS, H_EDGE_LIMITED),
                    20 => (Status::TOO_MANY_REQUESTS, H_THROTTLED),
                    30 => (Status::SERVICE_UNAVAILABLE, H_RETRY_AFTER),
                    _ => return self.inner.exchange(req),
                };
                Ok(Response::error(status, "refused").header(header, "1"))
            }

            fn clear_session(&mut self) {
                self.inner.clear_session();
            }

            fn transport_state(&self) -> hsp_http::TransportState {
                self.inner.transport_state()
            }

            fn restore_transport_state(&mut self, state: &hsp_http::TransportState) {
                self.inner.restore_transport_state(state);
            }
        }

        fn resilient(
            h: &Arc<dyn Handler>,
            seed: u64,
            stats: &Arc<RetryStats>,
        ) -> AccountSeat<ResilientExchange<Refusing>> {
            let clock = VirtualClock::shared();
            let exchange = ResilientExchange::with_stats(
                Refusing { inner: DirectExchange::new(h.clone()), calls: 0 },
                RetryPolicy::seeded(seed),
                Arc::clone(&clock),
                Arc::clone(stats),
            );
            AccountSeat { exchange: exchange.with_attempt_seq(), clock: Some(clock) }
        }

        let suspension =
            FaultPlan { enabled: true, suspend_account_after: vec![10], ..FaultPlan::default() };
        let state = check(
            clockless,
            PlatformConfig { faults: suspension, ..PlatformConfig::default() },
            None,
        );
        assert!(state.lanes.iter().all(|l| !l.transport.cookies.is_empty()));

        let churn = hsp_synth::ChurnModel::from_scenario(&ScenarioConfig::tiny()).scaled(16.0);
        let live = hsp_platform::MutationPlan {
            enabled: true,
            horizon_ms: 7_200_000,
            signup_per_mille: churn.signup_per_mille,
            friend_per_mille: churn.friend_per_mille,
            defriend_per_mille: churn.defriend_per_mille,
            privacy_flip_per_mille: churn.privacy_flip_per_mille,
            deactivate_per_mille: churn.deactivate_per_mille,
            ..hsp_platform::MutationPlan::default()
        };
        let state = check(
            resilient,
            PlatformConfig {
                faults: FaultPlan { suspend_account_after: vec![10], ..FaultPlan::chaos() },
                mutations: live,
                ..PlatformConfig::default()
            },
            Some(AdaptiveStrategy::seeded(7)),
        );
        let lanes = &state.lanes;
        assert!(lanes.iter().any(|l| !l.breakers.is_empty()));
        assert!(lanes.iter().any(|l| l.pacing != PacingState::default()));
        assert!(lanes.iter().all(|l| l.transport.attempt_seq > 0));
        assert!(state.sched.stale_refetches > 0);
        let stats = &state.sched.retry_stats;
        let sources = [stats.edge_limited, stats.fault_rate_limited, stats.throttled, stats.sheds];
        assert!(stats.retries > 0 && sources.iter().all(|&n| n > 0), "{stats:?}");
    }

    #[test]
    fn observability_counts_fetches_caches_and_politeness() {
        let (platform, s) = tiny_platform(FaultPlan::default());
        let mut crawler = parallel(&platform, 2, 1);
        let u = s.roster()[0];
        let _ = crawler.profile(u).unwrap();
        let _ = crawler.profile(u).unwrap(); // cache hit
        let _ = crawler.friends(u);

        let snap = platform.obs.snapshot();
        assert_eq!(snap.counter("crawler_fetch_total{endpoint=\"auth\"}"), 4);
        assert_eq!(snap.counter("crawler_fetch_total{endpoint=\"profile\"}"), 1);
        assert_eq!(snap.counter("crawler_cache_total{cache=\"profile\",result=\"hit\"}"), 1);
        assert_eq!(snap.counter("crawler_cache_total{cache=\"profile\",result=\"miss\"}"), 1);
        // Fault-free at one worker lane, politeness is the whole modeled
        // timeline.
        let virt = snap.counter("crawler_politeness_virtual_ms");
        assert_eq!(virt, crawler.virtual_elapsed_ms());
        assert!(virt >= 2 * Politeness::default().sleep_ms_between_requests);
        // Both sides of the experiment share one registry: the platform's
        // route counters moved too.
        assert!(snap.counter("http_route_requests_total{route=\"/profile/:uid\"}") >= 1);
    }

    #[test]
    fn more_accounts_more_seeds() {
        // With a big enough pool, extra accounts surface extra seeds.
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig { search_cap_per_account: 20, ..PlatformConfig::default() },
        );
        let handler = platform.into_handler();
        let mk = |n: usize, label: &str| {
            let exchanges = (0..n).map(|_| DirectExchange::new(handler.clone())).collect();
            ParallelCrawler::new(exchanges, label).unwrap()
        };
        let one = mk(1, "a").collect_seeds(scenario.school).unwrap();
        let four = mk(4, "b").collect_seeds(scenario.school).unwrap();
        assert!(four.len() > one.len(), "{} vs {}", four.len(), one.len());
    }

    #[test]
    fn modeled_wall_clock_shrinks_with_workers() {
        let run = |workers: usize| {
            let (platform, s) = tiny_platform(FaultPlan::default());
            let mut crawler = parallel(&platform, 4, workers);
            let seeds = crawler.collect_seeds(s.school).unwrap();
            crawler.prefetch_profiles(&seeds).unwrap();
            crawler.virtual_elapsed_ms()
        };
        let serial = run(1);
        let parallel_wall = run(4);
        assert!(serial > 0);
        assert!(
            parallel_wall * 2 < serial,
            "4 accounts on 4 lanes must model at least 2x faster: {parallel_wall} vs {serial}"
        );
    }

    /// Fails its first `failures` exchanges with a transport error and
    /// counts a shed on every call when `shed` is set, then delegates.
    struct Hostile {
        inner: DirectExchange,
        failures: usize,
        shed: Option<Arc<RetryStats>>,
    }

    impl Exchange for Hostile {
        fn exchange(&mut self, req: Request) -> hsp_http::Result<Response> {
            if let Some(stats) = &self.shed {
                stats.sheds.fetch_add(1, Ordering::Relaxed);
            }
            if self.failures > 0 {
                self.failures -= 1;
                return Err(HttpError::UnexpectedEof);
            }
            self.inner.exchange(req)
        }

        fn clear_session(&mut self) {
            self.inner.clear_session();
        }
    }

    fn hostile_crawler(
        platform: &Arc<Platform>,
        failures: usize,
        shed: Option<Arc<RetryStats>>,
    ) -> ParallelCrawler<Hostile> {
        let seat = Hostile {
            inner: DirectExchange::new(platform.into_handler()),
            failures,
            shed: shed.clone(),
        };
        let mut builder = ParallelCrawler::builder("spy").observability(&platform.obs);
        if let Some(stats) = shed {
            builder = builder.retry_stats(stats);
        }
        builder.build(vec![AccountSeat { exchange: seat, clock: None }]).expect("enrolled")
    }

    #[test]
    fn auth_posts_and_gets_survive_transport_errors() {
        let (platform, s) = tiny_platform(FaultPlan::default());
        // The signup's first two attempts and nothing else fail.
        let mut crawler = hostile_crawler(&platform, 2, None);
        assert_eq!(crawler.auth_retries(), 2);
        assert_eq!(crawler.effort().auth_requests, 4, "3 signup attempts + 1 login");
        // A GET whose transport fails is retried on the same account.
        crawler.accounts[0].lock().unwrap().exchange.failures = 1;
        crawler.profile(s.roster()[0]).expect("profile survives a reset");
        assert_eq!(crawler.effort().profile_requests, 2);
    }

    /// Refuses the first `sheds` `/signup` POSTs the way an overloaded
    /// edge does at admission: `503` + `Retry-After`.
    struct ShedSignups {
        inner: DirectExchange,
        sheds: usize,
    }

    impl Exchange for ShedSignups {
        fn exchange(&mut self, req: Request) -> hsp_http::Result<Response> {
            if self.sheds > 0 && req.path() == "/signup" {
                self.sheds -= 1;
                let shed = Response::error(Status::SERVICE_UNAVAILABLE, "shed");
                return Ok(shed.header(hsp_http::resilient::H_RETRY_AFTER, "1"));
            }
            self.inner.exchange(req)
        }

        fn clear_session(&mut self) {
            self.inner.clear_session();
        }
    }

    /// A shed that outlasts the retry layer's 5 attempts does not abort
    /// enrollment: the seat resends within its budget, widens its pacing
    /// and bills the resend.
    #[test]
    fn shed_signup_is_resent_not_fatal() {
        let (platform, _) = tiny_platform(FaultPlan::default());
        let stats = Arc::new(RetryStats::default());
        let clock = VirtualClock::shared();
        let exchange = hsp_http::ResilientExchange::with_stats(
            ShedSignups { inner: DirectExchange::new(platform.into_handler()), sheds: 6 },
            hsp_http::RetryPolicy::seeded(7),
            Arc::clone(&clock),
            Arc::clone(&stats),
        );
        let crawler = ParallelCrawler::builder("spy")
            .observability(&platform.obs)
            .retry_stats(Arc::clone(&stats))
            .build(vec![AccountSeat { exchange, clock: Some(clock) }])
            .expect("a shed signup must not abort crawler setup");
        assert_eq!(stats.sheds(), 6);
        assert_eq!(crawler.auth_retries(), 1, "one resend of the shed signup");
        assert_eq!(crawler.effort().auth_requests, 3, "2 signup sends + 1 login");
        assert_eq!(crawler.politeness_widen_factor(), 2, "the shed widened the seat's pacing");
    }

    #[test]
    fn pushback_widens_a_seat_and_calm_narrows_it() {
        let (platform, s) = tiny_platform(FaultPlan::default());
        let stats = Arc::new(RetryStats::default());
        let mut crawler = hostile_crawler(&platform, 0, Some(Arc::clone(&stats)));
        let base = Politeness::default().sleep_ms_between_requests;
        let cap = Politeness::default().max_widen_factor;
        let roster = s.roster();
        // Every fetch's exchange absorbed a shed: double the spacing
        // each time, up to the cap, and ledger the sheds.
        let mut expected_ms = crawler.accounts[0].lock().unwrap().clock.now_ms();
        for (k, &uid) in roster.iter().take(4).enumerate() {
            crawler.profile(uid).unwrap();
            expected_ms += base * (1u64 << k).min(cap);
            assert_eq!(crawler.accounts[0].lock().unwrap().clock.now_ms(), expected_ms);
        }
        assert_eq!(crawler.politeness_widen_factor(), cap);
        let snap = platform.obs.snapshot();
        assert_eq!(snap.counter("crawler_refusals_total{source=\"shed\"}"), stats.sheds());
        // Calm fetches narrow one step per `narrow_after_successes`.
        crawler.accounts[0].lock().unwrap().exchange.shed = None;
        let calm = Politeness::default().narrow_after_successes as usize;
        for &uid in roster.iter().skip(4).take(calm) {
            crawler.profile(uid).unwrap();
        }
        assert_eq!(crawler.politeness_widen_factor(), cap / 2);
        // And the pacing is journaled state.
        assert_eq!(crawler.resume_state().lanes[0].pacing.widen_factor, cap / 2);
    }

    #[test]
    fn adaptive_seats_jitter_and_bill_decoys_at_any_worker_count() {
        let run = |adaptive: bool, workers: usize| {
            let (platform, s) = tiny_platform(FaultPlan::default());
            let handler = platform.into_handler();
            let seats = (0..2)
                .map(|_| AccountSeat {
                    exchange: DirectExchange::new(handler.clone()),
                    clock: None,
                })
                .collect();
            let mut builder =
                ParallelCrawler::builder("spy").workers(workers).observability(&platform.obs);
            if adaptive {
                builder = builder.adaptive(AdaptiveStrategy::seeded(7));
            }
            let mut crawler = builder.build(seats).unwrap();
            let seeds = crawler.collect_seeds(s.school).unwrap();
            crawler.prefetch_profiles(&seeds).unwrap();
            let decoy_metric =
                platform.obs.snapshot().counter("crawler_fetch_total{endpoint=\"decoy\"}");
            let ms = crawler.virtual_elapsed_ms();
            (crawler.checkpoint().profiles, crawler.effort(), decoy_metric, ms)
        };
        let (naive_ckpt, naive_effort, _, naive_ms) = run(false, 1);
        let (ckpt, effort, decoy_metric, ms) = run(true, 1);
        let (ckpt4, effort4, decoy_metric4, _) = run(true, 4);
        assert_eq!(
            (&ckpt, effort, decoy_metric),
            (&ckpt4, effort4, decoy_metric4),
            "adaptive pacing is per seat: worker count is invisible"
        );
        assert_eq!(ckpt, naive_ckpt, "evasion changes the cost, not the pages");
        assert!(effort.decoy_requests > 0);
        assert_eq!(effort.decoy_requests, decoy_metric);
        assert_eq!(effort.total(), naive_effort.total() + effort.decoy_requests);
        assert_ne!(ms, naive_ms, "jitter and warm-up reshape the timeline");
    }
}
