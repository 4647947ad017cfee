//! The assembled OSN application: routes + handlers.

use crate::accounts::{AccountError, Accounts};
use crate::config::PlatformConfig;
use crate::faults::FaultEngine;
use crate::mutations::{MutationEngine, WorldGen};
use crate::render;
use hsp_defense::{session_account_index, SybilDetector, Verdict};
use hsp_graph::{CityId, Network, SchoolId, UserId};
use hsp_http::resilient::{
    captcha_delay_ms, refusal_provenance, H_ACCOUNT_SUSPENDED, H_ATTEMPT_SEQ, H_CAPTCHA,
    H_RETRY_AFTER, H_SESSION_EXPIRED, H_SUSPENDED, H_THROTTLED, H_TRACE_ID, H_VIRTUAL_NOW,
};
use hsp_http::{request_cookie, Handler, PathParams, Request, Response, Router, Status};
use hsp_obs::trace::{SpanRecord, SLOT_SERVER};
use hsp_obs::{Counter, Registry, RouteMetrics, TraceCtx, VirtualClock};
use hsp_policy::Policy;
use serde_json::json;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Application route patterns, in mount order. The `/__metrics` and
/// `/__status` admin routes are deliberately absent: they belong to the
/// operator, not the simulated OSN, and are not instrumented (nor do
/// they touch session state, so they never count toward attacker
/// effort or suspension accounting).
pub const ROUTES: &[&str] = &[
    "/signup",
    "/login",
    "/find-friends",
    "/graph-search",
    "/profile/:uid",
    "/friends/:uid",
    "/message/:uid",
    "/circles/:uid",
];

/// The five-way refusal-provenance taxonomy, in precedence order. The
/// platform itself only ever produces `fault`, `throttle` and
/// `suspension`; `edge` and `shed` belong to the HTTP edge but are
/// registered here too so `/__status` reports all five at a stable
/// shape (zeros included).
pub const REFUSAL_SOURCES: [&str; 5] = ["edge", "fault", "throttle", "shed", "suspension"];

/// The simulated OSN service. Immutable network + policy, mutable
/// account/session state, all behind `Arc` so the same platform can be
/// mounted on the HTTP server and called in-process.
pub struct Platform {
    pub network: Arc<Network>,
    pub policy: Arc<dyn Policy>,
    pub config: PlatformConfig,
    pub accounts: Accounts,
    /// Metrics registry shared by every route handler; servers and
    /// crawlers pointed at this platform may share it too.
    pub obs: Arc<Registry>,
    /// Virtual timeline for the windowed suspension rule. The platform
    /// only *reads* it; the attacker side advances it (politeness
    /// sleeps, backoff waits), so time is a pure function of the
    /// request sequence.
    pub clock: Arc<VirtualClock>,
    /// Fault-injection engine (a no-op under the default plan).
    pub faults: Arc<FaultEngine>,
    /// Behavioral sybil detector (a strict no-op when `Off`).
    pub defense: Arc<SybilDetector>,
    /// Live-world mutation engine. Its generation 0 is the frozen world
    /// every handler serves when the plan is not live (the default).
    pub mutations: Arc<MutationEngine>,
}

impl Platform {
    pub fn new(
        network: Arc<Network>,
        policy: Arc<dyn Policy>,
        config: PlatformConfig,
    ) -> Arc<Self> {
        Self::with_registry(network, policy, config, Registry::shared())
    }

    /// Build against an externally owned registry (so one registry can
    /// span platform, server and crawler in an experiment).
    pub fn with_registry(
        network: Arc<Network>,
        policy: Arc<dyn Policy>,
        config: PlatformConfig,
        obs: Arc<Registry>,
    ) -> Arc<Self> {
        Self::with_registry_and_clock(network, policy, config, obs, VirtualClock::shared())
    }

    /// Build against an external registry *and* virtual clock — the
    /// chaos setup, where the crawler's politeness/backoff waits drive
    /// the same timeline the platform's windowed suspension rule reads.
    pub fn with_registry_and_clock(
        network: Arc<Network>,
        policy: Arc<dyn Policy>,
        config: PlatformConfig,
        obs: Arc<Registry>,
        clock: Arc<VirtualClock>,
    ) -> Arc<Self> {
        let faults = FaultEngine::new(config.faults.clone(), Arc::clone(&obs));
        let defense = Arc::new(SybilDetector::new(config.defense.clone(), &obs));
        let mutations =
            MutationEngine::new(config.mutations.clone(), Arc::clone(&network), Arc::clone(&obs));
        Arc::new(Platform {
            network,
            policy,
            config,
            accounts: Accounts::new(),
            obs,
            clock,
            faults,
            defense,
            mutations,
        })
    }

    /// Wrap a route handler with per-route accounting. Metric handles
    /// are resolved once here, at router build time; the per-request
    /// cost is a clock read and a handful of atomic adds.
    fn instrument(
        self: &Arc<Self>,
        route: &'static str,
        f: impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static,
    ) -> impl Fn(&Request, &PathParams) -> Response + Send + Sync + 'static {
        let m = RouteMetrics::register(&self.obs, route);
        let faults = Arc::clone(&self.faults);
        let platform = Arc::clone(self);
        let span_name = format!("serve:{route}");
        // Refusal-provenance counters, resolved once at router build
        // time so every source shows up in /__status even at zero.
        let refusals: Vec<(&'static str, Arc<Counter>)> = REFUSAL_SOURCES
            .iter()
            .map(|&s| (s, self.obs.counter_with("platform_refusals_total", &[("source", s)])))
            .collect();
        move |req, params| {
            let started = Instant::now();
            let trace_header = req.headers.get(H_TRACE_ID).map(str::to_string);
            // Defense layer wraps everything: the sybil detector sees
            // the request first and may refuse it (throttle window,
            // suspension) before faults or the handler run. A CAPTCHA
            // verdict lets the request through but stamps the solve
            // cost on whatever comes back — including fault-injected
            // responses, since a challenged session pays on every page.
            let verdict = platform.defense.observe(route, req, || platform.clock.now_ms());
            let outcome = match verdict {
                Verdict::Suspend => "suspend",
                Verdict::Throttle { .. } => "throttle",
                Verdict::Challenge { .. } => "challenge",
                Verdict::Allow => "allow",
            };
            let resp = match verdict {
                Verdict::Suspend => {
                    if let Some(idx) = session_account_index(req) {
                        platform.accounts.force_suspend(idx);
                    }
                    Response::error(
                        Status::TOO_MANY_REQUESTS,
                        "account suspended for suspicious activity",
                    )
                    .header(H_ACCOUNT_SUSPENDED, "1")
                    .header(H_SUSPENDED, "1")
                }
                Verdict::Throttle { retry_after_secs } => {
                    Response::error(Status::TOO_MANY_REQUESTS, "temporarily throttled")
                        .header(H_RETRY_AFTER, retry_after_secs.to_string())
                        .header(H_THROTTLED, "1")
                }
                Verdict::Allow | Verdict::Challenge { .. } => {
                    // Fault layer wraps the application: pre-faults
                    // answer the request without running the handler
                    // (the account did nothing, so its budget is
                    // untouched); post-faults mangle the handler's
                    // response on the way out.
                    let resp = match faults.pre(req) {
                        Some(injected) => injected,
                        None => {
                            let resp = faults.post(req, f(req, params));
                            if route == "/message/:uid" {
                                platform
                                    .defense
                                    .observe_message_outcome(req, resp.status == Status::FORBIDDEN);
                            }
                            resp
                        }
                    };
                    match verdict {
                        Verdict::Challenge { delay_ms } => {
                            resp.header(H_CAPTCHA, delay_ms.to_string())
                        }
                        _ => resp,
                    }
                }
            };
            // Refusal provenance: classify the outgoing response by the
            // same taxonomy the crawler ledgers, so server-side counts
            // can be reconciled against client-side ones in forensics.
            let provenance = refusal_provenance(&resp);
            if let Some(src) = provenance {
                if let Some((_, c)) = refusals.iter().find(|(s, _)| *s == src) {
                    c.inc();
                }
            }
            // Serving span + trace-id echo, only for traced requests.
            let resp = match trace_header.as_deref().and_then(TraceCtx::parse) {
                Some(tc) => {
                    let tracer = platform.obs.tracer();
                    if tracer.is_enabled() {
                        // The platform never advances the virtual clock,
                        // so begin==end; both are deterministic reads.
                        let now = platform.clock.now_ms();
                        tracer.record(SpanRecord {
                            trace_id: tc.trace_id,
                            span_id: tc.span(SLOT_SERVER),
                            parent_id: tc.root_span(),
                            lane: tc.lane,
                            ordinal: tc.ordinal,
                            name: span_name.clone(),
                            begin_ms: now,
                            end_ms: now,
                            status: resp.status.code(),
                            outcome: outcome.to_string(),
                            provenance: provenance.unwrap_or("").to_string(),
                            captcha_ms: captcha_delay_ms(&resp).unwrap_or(0),
                        });
                    }
                    resp.header(H_TRACE_ID, trace_header.as_deref().unwrap_or(""))
                }
                None => resp,
            };
            m.observe(
                resp.status.code(),
                started.elapsed().as_micros() as u64,
                (req.target.len() + req.body.len()) as u64,
                resp.body.len() as u64,
            );
            resp
        }
    }

    /// Build the HTTP router over this platform.
    pub fn into_handler(self: &Arc<Self>) -> Arc<dyn Handler> {
        let mut router = Router::new();

        let p = Arc::clone(self);
        router.post("/signup", self.instrument("/signup", move |req, _| p.handle_signup(req)));
        let p = Arc::clone(self);
        router.post("/login", self.instrument("/login", move |req, _| p.handle_login(req)));
        let p = Arc::clone(self);
        router.get(
            "/find-friends",
            self.instrument("/find-friends", move |req, _| p.handle_find_friends(req)),
        );
        let p = Arc::clone(self);
        router.get(
            "/graph-search",
            self.instrument("/graph-search", move |req, _| p.handle_graph_search(req)),
        );
        let p = Arc::clone(self);
        router.get(
            "/profile/:uid",
            self.instrument("/profile/:uid", move |req, params| {
                p.handle_profile(req, params.get("uid"))
            }),
        );
        let p = Arc::clone(self);
        router.get(
            "/friends/:uid",
            self.instrument("/friends/:uid", move |req, params| {
                p.handle_friends(req, params.get("uid"))
            }),
        );
        let p = Arc::clone(self);
        router.post(
            "/message/:uid",
            self.instrument("/message/:uid", move |req, params| {
                p.handle_message(req, params.get("uid"))
            }),
        );
        let p = Arc::clone(self);
        router.get(
            "/circles/:uid",
            self.instrument("/circles/:uid", move |req, params| {
                p.handle_circles(req, params.get("uid"))
            }),
        );

        // Operator-facing admin routes: uninstrumented, session-free.
        let p = Arc::clone(self);
        router.get("/__metrics", move |_, _| p.handle_metrics());
        let p = Arc::clone(self);
        router.get("/__status", move |_, _| p.handle_status());
        let p = Arc::clone(self);
        router.get("/__trace", move |req, _| p.handle_trace(req));

        Arc::new(router)
    }

    // ---- admin (operator) endpoints ---------------------------------------

    /// `GET /__metrics`: the whole registry in Prometheus text format.
    fn handle_metrics(&self) -> Response {
        Response::text(self.obs.render_prometheus())
            .header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
    }

    /// `GET /__status`: operator dashboard JSON — uptime, per-route
    /// request/status/latency table, account and session tallies.
    fn handle_status(&self) -> Response {
        let routes: Vec<serde_json::Value> = ROUTES
            .iter()
            .map(|&route| {
                // register() re-resolves the shared handles; cheap, and
                // only paid on this cold admin path.
                let m = RouteMetrics::register(&self.obs, route);
                let [c2, c3, c4, c5] = m.class_counts();
                json!({
                    "route": route,
                    "requests": m.requests.get(),
                    "status": json!({ "2xx": c2, "3xx": c3, "4xx": c4, "5xx": c5 }),
                    "latency_us": json!({
                        "p50": m.latency_us.quantile(0.50),
                        "p95": m.latency_us.quantile(0.95),
                        "p99": m.latency_us.quantile(0.99),
                    }),
                    "request_bytes": m.request_bytes.get(),
                    "response_bytes": m.response_bytes.get(),
                })
            })
            .collect();
        // Detector tier + escalation-ladder occupancy, and the five-way
        // refusal-provenance counters (platform-side sources plus the
        // HTTP edge's limiter/shed tallies from the shared registry).
        let [t_none, t_captcha, t_throttle, t_suspend] = self.defense.ladder_occupancy();
        let ladder = json!({
            "none": t_none,
            "captcha": t_captcha,
            "throttle": t_throttle,
            "suspend": t_suspend,
        });
        let defense = json!({
            "strength": self.config.defense.strength.label(),
            "enabled": self.defense.enabled(),
            "sessions_observed": self.defense.sessions_observed(0),
            "sessions_flagged": self.defense.sessions_flagged(),
            "ladder": ladder,
        });
        let snap = self.obs.snapshot();
        let platform_refusal =
            |src: &str| snap.counter(&format!("platform_refusals_total{{source=\"{src}\"}}"));
        let refusals = json!({
            "edge": snap.counter("http_server_rate_limited_total"),
            "fault": platform_refusal("fault"),
            "throttle": platform_refusal("throttle"),
            "shed": snap.counter("http_server_shed_total{reason=\"queue_full\"}")
                + snap.counter("http_server_shed_total{reason=\"max_connections\"}"),
            "suspension": platform_refusal("suspension"),
        });
        let mutations = json!({
            "live": self.mutations.is_live(),
            "scheduled": self.mutations.event_count() as u64,
            "applied": self.mutations.applied_count() as u64,
            "state_digest": format!("{:016x}", self.mutations.state_digest()),
        });
        let body = json!({
            "uptime_ms": self.obs.uptime_ms(),
            "virtual_ms": self.clock.now_ms(),
            "routes": routes,
            "accounts": json!({
                "registered": self.accounts.account_count(),
                "sessions": self.accounts.session_count(),
                "suspended": self.accounts.suspended_count(),
            }),
            "defense": defense,
            "mutations": mutations,
            "refusals": refusals,
        });
        Response::text(serde_json::to_string_pretty(&body).unwrap_or_default())
            .header("Content-Type", "application/json")
    }

    /// `GET /__trace`: the flight recorder's view of recent activity —
    /// recorder state, canonical digest, per-route and per-provenance
    /// breakdowns, and a JSON tail of the most recent spans
    /// (`?n=<count>`, default 32). Uninstrumented and session-free,
    /// like the other operator endpoints.
    fn handle_trace(&self, req: &Request) -> Response {
        let tracer = self.obs.tracer();
        let tail: usize = req.query_param("n").and_then(|n| n.parse().ok()).unwrap_or(32);
        let spans = tracer.spans();
        let mut by_route: std::collections::BTreeMap<&str, u64> = Default::default();
        for s in &spans {
            if let Some(route) = s.name.strip_prefix("serve:") {
                *by_route.entry(route).or_default() += 1;
            }
        }
        let routes: Vec<serde_json::Value> = by_route
            .iter()
            .map(|(route, count)| json!({ "route": *route, "spans": *count }))
            .collect();
        let provenance: Vec<serde_json::Value> = tracer
            .provenance_counts()
            .iter()
            .map(|(src, count)| json!({ "source": src.as_str(), "refusals": *count }))
            .collect();
        let recent: Vec<serde_json::Value> = spans
            .iter()
            .rev()
            .take(tail)
            .rev()
            .filter_map(|s| serde_json::to_value(s).ok())
            .collect();
        let body = json!({
            "enabled": tracer.is_enabled(),
            "spans": spans.len() as u64,
            "dropped": tracer.dropped(),
            "digest": format!("{:016x}", tracer.digest()),
            "routes": routes,
            "provenance": provenance,
            "recent": recent,
        });
        Response::text(serde_json::to_string_pretty(&body).unwrap_or_default())
            .header("Content-Type", "application/json")
    }

    // ---- session plumbing -------------------------------------------------

    fn session_account(&self, req: &Request) -> Result<usize, Response> {
        let sid = request_cookie(req, "sid")
            .ok_or_else(|| Response::error(Status::UNAUTHORIZED, "login required"))?;
        let seq = req.headers.get(H_ATTEMPT_SEQ).and_then(|v| v.trim().parse::<u64>().ok());
        if self.faults.expire_session_now(req) {
            // In sequence mode the session is *not* evicted: a crash-
            // resumed crawler replaying an earlier seq with the same
            // sid must still authorize. The 401 itself replays
            // deterministically (the expiry draw is keyed by seq), so
            // the client re-logins at the same point either way.
            if seq.is_none() {
                self.accounts.expire_session(sid);
            }
            return Err(Response::error(Status::UNAUTHORIZED, "session expired")
                .header(H_SESSION_EXPIRED, "1"));
        }
        let suspended = || {
            Response::error(Status::TOO_MANY_REQUESTS, "account suspended for suspicious activity")
                .header(H_ACCOUNT_SUSPENDED, "1")
        };
        let (index, replayed) = self
            .accounts
            .authorize_replay_aware(
                sid,
                self.config.suspension_threshold,
                self.config.rate_max_in_window,
                self.config.rate_window_ms,
                self.clock.now_ms(),
                seq,
            )
            .map_err(|e| match e {
                AccountError::Suspended => suspended(),
                _ => Response::error(Status::UNAUTHORIZED, "login required"),
            })?;
        // Scripted escalation only fires on fresh requests; a replayed
        // seq reproduces its original verdict via `suspended_at_seq`.
        if !replayed && self.faults.should_force_suspend(index, self.accounts.request_count(index))
        {
            self.accounts.force_suspend_at(index, seq);
            return Err(suspended());
        }
        Ok(index)
    }

    fn parse_user(&self, raw: Option<&str>, net: &Network) -> Result<UserId, Response> {
        raw.and_then(UserId::parse)
            .filter(|u| u.index() < net.user_count())
            .ok_or_else(|| Response::error(Status::NOT_FOUND, "no such user"))
    }

    /// The world `req` is served from. A frozen platform serves
    /// generation 0 to every request without reading its clock header,
    /// taking the engine's lock or tallying a serve. A live one resolves
    /// the seat clock the request carries in `x-virtual-now-ms` — the
    /// crawler's per-account timelines — falling back to the platform
    /// clock for header-less clients.
    fn world(&self, req: &Request) -> Cow<'_, Arc<WorldGen>> {
        if !self.mutations.is_live() {
            return Cow::Borrowed(self.mutations.base());
        }
        let now = req
            .headers
            .get(H_VIRTUAL_NOW)
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| self.clock.now_ms());
        Cow::Owned(self.mutations.world_at(now))
    }

    /// A page's `data-gen` stamp: `gen` on a live platform, none on a
    /// frozen one, whose pages carry no stamps.
    fn stamp(&self, gen: u64) -> Option<u64> {
        self.mutations.is_live().then_some(gen)
    }

    // ---- handlers -----------------------------------------------------------

    fn handle_signup(&self, req: &Request) -> Response {
        let user = req.form_param("user").unwrap_or_default();
        let pass = req.form_param("pass").unwrap_or_default();
        if user.is_empty() || pass.is_empty() {
            return Response::error(Status::BAD_REQUEST, "user and pass required");
        }
        match self.accounts.signup(&user, &pass) {
            Ok(_) => Response::text("account created"),
            Err(AccountError::UsernameTaken) => {
                Response::error(Status::BAD_REQUEST, "username taken")
            }
            Err(_) => Response::error(Status::INTERNAL_SERVER_ERROR, "signup failed"),
        }
    }

    fn handle_login(&self, req: &Request) -> Response {
        let user = req.form_param("user").unwrap_or_default();
        let pass = req.form_param("pass").unwrap_or_default();
        match self.accounts.login(&user, &pass) {
            Ok(sid) => Response::text("welcome").set_cookie("sid", &sid),
            Err(_) => Response::error(Status::UNAUTHORIZED, "bad credentials"),
        }
    }

    fn handle_find_friends(&self, req: &Request) -> Response {
        let account = match self.session_account(req) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let Some(school) = req.query_param("school").as_deref().and_then(SchoolId::parse) else {
            return Response::error(Status::BAD_REQUEST, "school parameter required");
        };
        if school.index() >= self.network.schools().len() {
            return Response::error(Status::NOT_FOUND, "no such school");
        }
        let page: usize = req.query_param("page").and_then(|p| p.parse().ok()).unwrap_or(0);
        let w = self.world(req);
        let net = &w.network;
        let (ids, has_more) =
            w.search.page(net, self.policy.as_ref(), &self.config, school, account, page);
        let entries: Vec<(UserId, String)> =
            ids.into_iter().map(|u| (u, net.user(u).profile.full_name())).collect();
        let next = has_more.then(|| format!("/find-friends?school={school}&page={}", page + 1));
        let stamp = self.stamp(w.generation as u64);
        Response::html(render::listing_page_inner("results", &entries, next, stamp))
    }

    fn handle_graph_search(&self, req: &Request) -> Response {
        let account = match self.session_account(req) {
            Ok(a) => a,
            Err(resp) => return resp,
        };
        let Some(school) = req.query_param("school").as_deref().and_then(SchoolId::parse) else {
            return Response::error(Status::BAD_REQUEST, "school parameter required");
        };
        if school.index() >= self.network.schools().len() {
            return Response::error(Status::NOT_FOUND, "no such school");
        }
        let current_only = req.query_param("current").as_deref() == Some("1");
        let city = req.query_param("city").as_deref().and_then(CityId::parse);
        let w = self.world(req);
        let net = &w.network;
        let ids = w.search.graph_search(
            net,
            self.policy.as_ref(),
            &self.config,
            school,
            account,
            current_only,
            city,
        );
        let entries: Vec<(UserId, String)> =
            ids.into_iter().map(|u| (u, net.user(u).profile.full_name())).collect();
        let stamp = self.stamp(w.generation as u64);
        Response::html(render::listing_page_inner("results", &entries, None, stamp))
    }

    fn handle_profile(&self, req: &Request, uid: Option<&str>) -> Response {
        if let Err(resp) = self.session_account(req) {
            return resp;
        }
        let w = self.world(req);
        let uid = match self.parse_user(uid, &w.network) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        // A tombstone is an answer, not an error: deactivated and
        // graduated-away users get a minimal marker page so the crawler
        // can degrade to a Completeness disclosure.
        if w.tombstoned(uid) {
            return Response::html(render::tombstone_page(uid, w.user_generation(uid)));
        }
        let view = self.policy.stranger_view(&w.network, uid);
        let stamp = self.stamp(w.user_generation(uid));
        Response::html(render::profile_page_inner(&w.network, &view, stamp))
    }

    fn handle_friends(&self, req: &Request, uid: Option<&str>) -> Response {
        if let Err(resp) = self.session_account(req) {
            return resp;
        }
        let w = self.world(req);
        let net = &w.network;
        let uid = match self.parse_user(uid, net) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        // Same refusal as a hidden list: the tombstone's *profile* page
        // tells the crawler why.
        let visible =
            if w.tombstoned(uid) { None } else { self.policy.visible_friend_list(net, uid) };
        let Some(friends) = visible else {
            return Response::error(Status::FORBIDDEN, "friend list not visible");
        };
        let page: usize = req.query_param("page").and_then(|p| p.parse().ok()).unwrap_or(0);
        let per = self.config.friends_page_size;
        let start = page.saturating_mul(per).min(friends.len());
        let end = (start + per).min(friends.len());
        let has_more = end < friends.len();
        let entries: Vec<(UserId, String)> =
            friends[start..end].iter().map(|&u| (u, net.user(u).profile.full_name())).collect();
        let next = has_more.then(|| format!("/friends/{uid}?page={}", page + 1));
        let stamp = self.stamp(w.user_generation(uid));
        Response::html(render::listing_page_inner("friends", &entries, next, stamp))
    }

    /// Google+ circles pages: `?dir=in` ("in your circles", outgoing) or
    /// `?dir=has` ("have you in circles", incoming). 404 on platforms
    /// without circles (the Facebook policy).
    fn handle_circles(&self, req: &Request, uid: Option<&str>) -> Response {
        if let Err(resp) = self.session_account(req) {
            return resp;
        }
        let w = self.world(req);
        let net = &w.network;
        let uid = match self.parse_user(uid, net) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        let incoming = match req.query_param("dir").as_deref() {
            Some("has") => true,
            Some("in") | None => false,
            Some(_) => return Response::error(Status::BAD_REQUEST, "dir must be in|has"),
        };
        // Tombstoned users' circles are refused like their friend lists.
        let visible =
            if w.tombstoned(uid) { None } else { self.policy.visible_circles(net, uid, incoming) };
        let Some(list) = visible else {
            return Response::error(Status::FORBIDDEN, "circles not visible");
        };
        let page: usize = req.query_param("page").and_then(|p| p.parse().ok()).unwrap_or(0);
        let per = self.config.friends_page_size;
        let start = page.saturating_mul(per).min(list.len());
        let end = (start + per).min(list.len());
        let has_more = end < list.len();
        let entries: Vec<(UserId, String)> =
            list[start..end].iter().map(|&u| (u, net.user(u).profile.full_name())).collect();
        let dir = if incoming { "has" } else { "in" };
        let next = has_more.then(|| format!("/circles/{uid}?dir={dir}&page={}", page + 1));
        let stamp = self.stamp(w.user_generation(uid));
        Response::html(render::listing_page_inner("circles", &entries, next, stamp))
    }

    fn handle_message(&self, req: &Request, uid: Option<&str>) -> Response {
        if let Err(resp) = self.session_account(req) {
            return resp;
        }
        let w = self.world(req);
        let uid = match self.parse_user(uid, &w.network) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        if w.tombstoned(uid) || !self.policy.stranger_view(&w.network, uid).message_button {
            return Response::error(Status::FORBIDDEN, "cannot message this user");
        }
        Response::text("message delivered")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_graph::Audience;
    use hsp_markup::{parse, select};
    use hsp_policy::FacebookPolicy;
    use hsp_synth::{generate, ScenarioConfig};

    fn tiny_platform() -> (Arc<Platform>, Arc<dyn Handler>, hsp_synth::Scenario) {
        let scenario = generate(&ScenarioConfig::tiny());
        let net = Arc::new(scenario.network.clone());
        let platform =
            Platform::new(net, Arc::new(FacebookPolicy::new()), PlatformConfig::default());
        let handler = platform.into_handler();
        (platform, handler, scenario)
    }

    fn login(handler: &Arc<dyn Handler>, name: &str) -> String {
        let r = handler.handle(&Request::post_form("/signup", &[("user", name), ("pass", "x")]));
        assert_eq!(r.status, Status::OK);
        let r = handler.handle(&Request::post_form("/login", &[("user", name), ("pass", "x")]));
        assert_eq!(r.status, Status::OK);
        let cookie = r.headers.get("set-cookie").unwrap();
        cookie.split(';').next().unwrap().to_string()
    }

    #[test]
    fn endpoints_require_login() {
        let (_p, handler, s) = tiny_platform();
        for path in [
            format!("/find-friends?school={}", s.school),
            "/profile/u0".to_string(),
            "/friends/u0".to_string(),
        ] {
            let r = handler.handle(&Request::get(path));
            assert_eq!(r.status, Status::UNAUTHORIZED);
        }
    }

    #[test]
    fn search_returns_profile_links_and_never_minors() {
        let (_p, handler, s) = tiny_platform();
        let cookie = login(&handler, "spy");
        let mut page = 0;
        let mut found = 0;
        loop {
            let r = handler.handle(
                &Request::get(format!("/find-friends?school={}&page={page}", s.school))
                    .header("Cookie", &cookie),
            );
            assert_eq!(r.status, Status::OK);
            let dom = parse(&r.body_string());
            for a in select(&dom, "#results a.profile-link") {
                let uid =
                    UserId::parse(a.get_attr("href").unwrap().strip_prefix("/profile/").unwrap())
                        .unwrap();
                assert!(
                    !s.network.user(uid).is_registered_minor(s.network.today),
                    "search returned a registered minor"
                );
                found += 1;
            }
            if hsp_markup::select_first(&dom, "#next-page").is_none() {
                break;
            }
            page += 1;
        }
        assert!(found > 0, "search returned nothing");
    }

    #[test]
    fn profile_page_is_minimal_for_registered_minors() {
        let (_p, handler, s) = tiny_platform();
        let cookie = login(&handler, "spy");
        let minor = s.registered_minor_students()[0];
        let r =
            handler.handle(&Request::get(format!("/profile/{minor}")).header("Cookie", &cookie));
        let dom = parse(&r.body_string());
        assert!(select(&dom, ".edu").is_empty());
        assert!(select(&dom, ".friends-link").is_empty());
        assert!(select(&dom, ".message-button").is_empty());
        assert!(!select(&dom, "h1.name").is_empty());
    }

    #[test]
    fn friends_pages_paginate_and_respect_privacy() {
        let (_p, handler, s) = tiny_platform();
        let cookie = login(&handler, "spy");
        // Find a user with a public friend list and lots of friends.
        let open = s
            .network
            .user_ids()
            .filter(|&u| {
                !s.network.user(u).is_registered_minor(s.network.today)
                    && s.network.user(u).privacy.friend_list == Audience::Public
            })
            .max_by_key(|&u| s.network.friends(u).len())
            .unwrap();
        let total = s.network.friends(open).len();
        assert!(total > 20, "need a paginating example");
        let mut seen = Vec::new();
        let mut page = 0;
        loop {
            let r = handler.handle(
                &Request::get(format!("/friends/{open}?page={page}")).header("Cookie", &cookie),
            );
            assert_eq!(r.status, Status::OK);
            let dom = parse(&r.body_string());
            let links = select(&dom, "#friends a.profile-link");
            assert!(links.len() <= 20);
            seen.extend(links.iter().map(|a| {
                UserId::parse(a.get_attr("href").unwrap().strip_prefix("/profile/").unwrap())
                    .unwrap()
            }));
            if hsp_markup::select_first(&dom, "#next-page").is_none() {
                break;
            }
            page += 1;
        }
        assert_eq!(seen.len(), total);
        // A hidden-list user is forbidden.
        let hidden = s
            .network
            .user_ids()
            .find(|&u| s.network.user(u).privacy.friend_list != Audience::Public)
            .unwrap();
        let r =
            handler.handle(&Request::get(format!("/friends/{hidden}")).header("Cookie", &cookie));
        assert_eq!(r.status, Status::FORBIDDEN);
    }

    #[test]
    fn different_accounts_see_different_search_samples() {
        // Use HS-sized pool so caps bite: tiny() pool may be below cap.
        let (platform, handler, s) = tiny_platform();
        let c1 = login(&handler, "spy1");
        let c2 = login(&handler, "spy2");
        let get_first_page = |cookie: &str| {
            let r = handler.handle(
                &Request::get(format!("/find-friends?school={}", s.school))
                    .header("Cookie", cookie),
            );
            let dom = parse(&r.body_string());
            select(&dom, "#results a.profile-link")
                .iter()
                .map(|a| a.get_attr("href").unwrap().to_string())
                .collect::<Vec<_>>()
        };
        let p1 = get_first_page(&c1);
        let p2 = get_first_page(&c2);
        assert_ne!(p1, p2, "accounts should see different orderings");
        let _ = platform;
    }

    #[test]
    fn suspension_kicks_in() {
        let scenario = generate(&ScenarioConfig::tiny());
        let net = Arc::new(scenario.network.clone());
        let platform = Platform::new(
            net,
            Arc::new(FacebookPolicy::new()),
            PlatformConfig { suspension_threshold: 3, ..PlatformConfig::default() },
        );
        let handler = platform.into_handler();
        let cookie = login(&handler, "greedy");
        for _ in 0..3 {
            let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
            assert_eq!(r.status, Status::OK);
        }
        let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
        assert_eq!(r.status, Status::TOO_MANY_REQUESTS);
    }

    #[test]
    fn virtual_time_rate_limit_spares_polite_crawlers() {
        let make = || {
            let scenario = generate(&ScenarioConfig::tiny());
            let net = Arc::new(scenario.network.clone());
            let platform = Platform::new(
                net,
                Arc::new(FacebookPolicy::new()),
                PlatformConfig {
                    rate_max_in_window: 5,
                    rate_window_ms: 60_000,
                    ..PlatformConfig::default()
                },
            );
            let handler = platform.into_handler();
            (platform, handler)
        };

        // Impolite: hammers without ever advancing virtual time.
        let (_p, handler) = make();
        let cookie = login(&handler, "rude");
        let mut served = 0;
        for _ in 0..20 {
            let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
            if r.status == Status::TOO_MANY_REQUESTS {
                assert_eq!(r.headers.get("x-account-suspended"), Some("1"));
                break;
            }
            served += 1;
        }
        assert_eq!(served, 5, "6th same-instant request must suspend");

        // Polite: same budget, but sleeps 30 virtual seconds between
        // requests — never comes close to 5-per-minute.
        let (platform, handler) = make();
        let cookie = login(&handler, "sleepy");
        for _ in 0..20 {
            let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
            assert_eq!(r.status, Status::OK);
            platform.clock.advance_ms(30_000);
        }
        assert_eq!(platform.accounts.suspended_count(), 0);
    }

    #[test]
    fn admin_endpoints_report_without_touching_effort() {
        let (platform, handler, _s) = tiny_platform();
        let cookie = login(&handler, "spy");
        let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
        assert_eq!(r.status, Status::OK);
        let served = platform.accounts.request_count(0);

        let m = handler.handle(&Request::get("/__metrics"));
        assert_eq!(m.status, Status::OK);
        let text = m.body_string();
        assert!(
            text.contains("http_route_requests_total{route=\"/profile/:uid\"} 1"),
            "missing profile counter in:\n{text}"
        );

        let st = handler.handle(&Request::get("/__status"));
        assert_eq!(st.status, Status::OK);
        let v: serde_json::Value = serde_json::from_str(&st.body_string()).unwrap();
        assert!(v.get("uptime_ms").is_some());
        let routes = v.get("routes").and_then(|r| r.as_array()).unwrap();
        assert_eq!(routes.len(), ROUTES.len());
        assert_eq!(
            v.get("accounts").and_then(|a| a.get("registered")).and_then(|n| n.as_u64()),
            Some(1)
        );

        // Admin traffic is free: no request-counter (suspension/effort)
        // movement, and no per-route metric for the admin paths.
        assert_eq!(platform.accounts.request_count(0), served);
        let text = handler.handle(&Request::get("/__metrics")).body_string();
        assert!(!text.contains("route=\"/__metrics\""), "admin route was instrumented");
    }

    #[test]
    fn traced_requests_produce_serving_spans_and_trace_endpoint_reports() {
        let (platform, handler, _s) = tiny_platform();
        platform.obs.enable_tracing(64);
        let cookie = login(&handler, "spy");

        let ctx = hsp_obs::TraceCtx::derive(hsp_obs::TRACE_SEED, 4, 7);
        let r = handler.handle(
            &Request::get("/profile/u0")
                .header("Cookie", &cookie)
                .header(H_TRACE_ID, ctx.header_value()),
        );
        assert_eq!(r.status, Status::OK);
        // The trace id is echoed so clients can stitch both sides.
        assert_eq!(r.headers.get(H_TRACE_ID), Some(ctx.header_value().as_str()));

        // Untraced requests record nothing.
        let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
        assert_eq!(r.status, Status::OK);

        let spans = platform.obs.tracer().spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "serve:/profile/:uid");
        assert_eq!(spans[0].lane, 4);
        assert_eq!(spans[0].ordinal, 7);
        assert_eq!(spans[0].span_id, ctx.span(hsp_obs::trace::SLOT_SERVER));
        assert_eq!(spans[0].parent_id, ctx.root_span());
        assert_eq!(spans[0].outcome, "allow");
        assert_eq!(spans[0].provenance, "");

        let t = handler.handle(&Request::get("/__trace?n=8"));
        assert_eq!(t.status, Status::OK);
        let v: serde_json::Value = serde_json::from_str(&t.body_string()).unwrap();
        assert_eq!(v.get("enabled").and_then(|b| b.as_bool()), Some(true));
        assert_eq!(v.get("spans").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(v.get("dropped").and_then(|n| n.as_u64()), Some(0));
        let recent = v.get("recent").and_then(|r| r.as_array()).unwrap();
        assert_eq!(recent.len(), 1);
        let routes = v.get("routes").and_then(|r| r.as_array()).unwrap();
        assert_eq!(routes[0].get("route").and_then(|s| s.as_str()), Some("/profile/:uid"));

        // /__status carries the detector tier, ladder occupancy and the
        // five refusal-provenance counters (all zero in this quiet run).
        let st = handler.handle(&Request::get("/__status"));
        let v: serde_json::Value = serde_json::from_str(&st.body_string()).unwrap();
        let defense = v.get("defense").unwrap();
        assert_eq!(defense.get("strength").and_then(|s| s.as_str()), Some("off"));
        assert_eq!(defense.get("enabled").and_then(|b| b.as_bool()), Some(false));
        let ladder = defense.get("ladder").unwrap();
        for rung in ["none", "captcha", "throttle", "suspend"] {
            assert!(ladder.get(rung).and_then(|n| n.as_u64()).is_some(), "missing rung {rung}");
        }
        let refusals = v.get("refusals").unwrap();
        for src in REFUSAL_SOURCES {
            assert_eq!(refusals.get(src).and_then(|n| n.as_u64()), Some(0), "source {src}");
        }
    }

    #[test]
    fn suspension_refusals_are_counted_by_provenance() {
        let scenario = generate(&ScenarioConfig::tiny());
        let net = Arc::new(scenario.network.clone());
        let platform = Platform::new(
            net,
            Arc::new(FacebookPolicy::new()),
            PlatformConfig { suspension_threshold: 2, ..PlatformConfig::default() },
        );
        let handler = platform.into_handler();
        let cookie = login(&handler, "greedy");
        for _ in 0..2 {
            assert_eq!(
                handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie)).status,
                Status::OK
            );
        }
        let r = handler.handle(&Request::get("/profile/u0").header("Cookie", &cookie));
        assert_eq!(r.status, Status::TOO_MANY_REQUESTS);
        let snap = platform.obs.snapshot();
        assert_eq!(snap.counter("platform_refusals_total{source=\"suspension\"}"), 1);
        assert_eq!(snap.counter("platform_refusals_total{source=\"fault\"}"), 0);
    }

    #[test]
    fn live_world_serves_as_of_time_and_zero_rate_is_byte_identical() {
        use crate::mutations::MutationPlan;
        let scenario = generate(&ScenarioConfig::tiny());
        let net = Arc::new(scenario.network.clone());
        let make = |mutations: MutationPlan| {
            let platform = Platform::new(
                Arc::clone(&net),
                Arc::new(FacebookPolicy::new()),
                PlatformConfig { mutations, ..PlatformConfig::default() },
            );
            let handler = platform.into_handler();
            (platform, handler)
        };

        // Zero-rate: pages are byte-identical to the frozen platform's.
        let (_fp, frozen) = make(MutationPlan::none());
        let (_zp, zeroed) =
            make(MutationPlan { enabled: true, horizon_ms: 7_200_000, ..MutationPlan::none() });
        let cf = login(&frozen, "spy");
        let cz = login(&zeroed, "spy");
        for path in ["/profile/u0", &format!("/find-friends?school={}", scenario.school)] {
            let a = frozen.handle(&Request::get(path).header("Cookie", &cf));
            let b = zeroed.handle(&Request::get(path).header("Cookie", &cz));
            assert_eq!(a.body, b.body, "zero-rate page differs for {path}");
            assert!(!a.body_string().contains("data-gen"), "frozen page is stamped");
        }

        // Live: rollover at t=1000 tombstones the seniors; requests are
        // served as-of the time they carry.
        let senior_year = scenario.network.senior_class_year();
        let senior = scenario.network.roster_for_class(scenario.school, senior_year)[0];
        let plan =
            MutationPlan { enabled: true, rollover_at_ms: vec![1_000], ..MutationPlan::none() };
        let (_lp, live) = make(plan);
        let cl = login(&live, "spy");
        let before = live.handle(
            &Request::get(format!("/profile/{senior}"))
                .header("Cookie", &cl)
                .header(H_VIRTUAL_NOW, "999"),
        );
        assert_eq!(before.status, Status::OK);
        let dom = parse(&before.body_string());
        let root = hsp_markup::select_first(&dom, "#profile").unwrap();
        assert_eq!(root.get_attr("data-gen"), Some("0"));
        assert_eq!(root.get_attr("data-tombstone"), None);
        let after = live.handle(
            &Request::get(format!("/profile/{senior}"))
                .header("Cookie", &cl)
                .header(H_VIRTUAL_NOW, "1000"),
        );
        assert_eq!(after.status, Status::OK, "tombstone is an answer, not an error");
        let dom = parse(&after.body_string());
        let root = hsp_markup::select_first(&dom, "#profile").unwrap();
        assert_eq!(root.get_attr("data-tombstone"), Some("1"));
        let friends = live.handle(
            &Request::get(format!("/friends/{senior}"))
                .header("Cookie", &cl)
                .header(H_VIRTUAL_NOW, "1000"),
        );
        assert_eq!(friends.status, Status::FORBIDDEN);
    }

    #[test]
    fn circles_follow_the_live_world() {
        use crate::mutations::MutationPlan;
        use hsp_policy::GooglePlusPolicy;
        let scenario = generate(&ScenarioConfig::tiny());
        let net = Arc::new(scenario.network.clone());
        let make = |mutations: MutationPlan| {
            let platform = Platform::new(
                Arc::clone(&net),
                Arc::new(GooglePlusPolicy::new()),
                PlatformConfig { mutations, ..PlatformConfig::default() },
            );
            let handler = platform.into_handler();
            let cookie = login(&handler, "spy");
            (platform, handler, cookie)
        };
        let (_fp, frozen, cf) = make(MutationPlan::none());
        let plan =
            MutationPlan { enabled: true, rollover_at_ms: vec![1_000], ..MutationPlan::none() };
        let (_lp, live, cl) = make(plan);
        let seniors = scenario
            .network
            .roster_for_class(scenario.school, scenario.network.senior_class_year());
        assert!(!seniors.is_empty(), "tiny scenario has no seniors");
        let get = |handler: &Arc<dyn Handler>, cookie: &str, path: String, now: Option<&str>| {
            let req = Request::get(path).header("Cookie", cookie);
            let req = match now {
                Some(now) => req.header(H_VIRTUAL_NOW, now),
                None => req,
            };
            handler.handle(&req).status
        };
        // The seniors whose circles a stranger may see on the frozen world.
        let open: Vec<UserId> = seniors
            .into_iter()
            .filter(|s| get(&frozen, &cf, format!("/circles/{s}?dir=in"), None) == Status::OK)
            .collect();
        assert!(!open.is_empty(), "no senior has visible circles");
        for &s in &open {
            let circles = format!("/circles/{s}?dir=in");
            assert_eq!(get(&live, &cl, circles.clone(), Some("999")), Status::OK, "before {s}");
            // Graduated away at the rollover: refused like the friend list.
            assert_eq!(get(&live, &cl, circles, Some("1000")), Status::FORBIDDEN, "after {s}");
            let friends = format!("/friends/{s}");
            assert_eq!(get(&live, &cl, friends, Some("1000")), Status::FORBIDDEN, "friends {s}");
        }
    }

    #[test]
    fn message_endpoint_respects_policy() {
        let (_p, handler, s) = tiny_platform();
        let cookie = login(&handler, "spy");
        let today = s.network.today;
        let open_adult = s
            .network
            .user_ids()
            .find(|&u| {
                !s.network.user(u).is_registered_minor(today)
                    && s.network.user(u).privacy.message_button == Audience::Public
            })
            .unwrap();
        let minor = s.registered_minor_students()[0];
        let r = handler.handle(
            &Request::post_form(format!("/message/{open_adult}"), &[("body", "hi")])
                .header("Cookie", &cookie),
        );
        assert_eq!(r.status, Status::OK);
        let r = handler.handle(
            &Request::post_form(format!("/message/{minor}"), &[("body", "hi")])
                .header("Cookie", &cookie),
        );
        assert_eq!(r.status, Status::FORBIDDEN);
    }

    #[test]
    fn graph_search_current_filter() {
        let (_p, handler, s) = tiny_platform();
        let cookie = login(&handler, "spy");
        let r = handler.handle(
            &Request::get(format!("/graph-search?school={}&current=1", s.school))
                .header("Cookie", &cookie),
        );
        assert_eq!(r.status, Status::OK);
        let dom = parse(&r.body_string());
        let senior = s.network.senior_class_year();
        for a in select(&dom, "#results a.profile-link") {
            let uid = UserId::parse(a.get_attr("href").unwrap().strip_prefix("/profile/").unwrap())
                .unwrap();
            // Every hit publicly claims current attendance.
            let view = hsp_policy::FacebookPolicy::new().stranger_view(&s.network, uid);
            assert!(view
                .education
                .iter()
                .any(|e| e.school == s.school && e.grad_year.is_some_and(|g| g >= senior)));
        }
    }
}
