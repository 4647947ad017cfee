//! Pass-through wrappers around the public seams of the attack.
//!
//! [`Timed`] sits at each seat's transport and runs in every run: it is
//! the `request_us` timer and the failure counter. The other three —
//! [`ProbePolicy`], [`ProbeHandler`] and [`ProbeAccess`] — are mounted
//! only in the traced phase. Each forwards every call unchanged and
//! records counts and wall time around it; the traced phase's outcome
//! digests must equal the untraced phase's, which is the proof that
//! they change nothing.

use hs_profiler::crawler::{CrawlError, CrawlSnapshot, Effort, OsnAccess, ScrapedProfile};
use hs_profiler::graph::{Network, SchoolId, UserId};
use hs_profiler::http::resilient::H_VIRTUAL_NOW;
use hs_profiler::http::{Exchange, Handler, Request, Response, TransportState};
use hs_profiler::platform::MutationEngine;
use hs_profiler::policy::{FacebookPolicy, Policy, PublicView};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Per-exchange wall times and failures of one crawler's transports.
#[derive(Default)]
pub struct TransportLog {
    samples_ns: Mutex<Vec<u64>>,
    failed: AtomicU64,
}

impl TransportLog {
    /// Every sample so far, in nanoseconds.
    pub fn samples(&self) -> Vec<u64> {
        self.samples_ns.lock().expect("transport log poisoned").clone()
    }

    /// Exchanges that ended in a transport error, a 5xx or a 429.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

/// The transport timer: wraps a seat's `DirectExchange` or `Client`.
pub struct Timed<E> {
    inner: E,
    log: Arc<TransportLog>,
}

impl<E> Timed<E> {
    pub fn new(inner: E, log: Arc<TransportLog>) -> Timed<E> {
        Timed { inner, log }
    }
}

impl<E: Exchange> Exchange for Timed<E> {
    fn exchange(&mut self, req: Request) -> hs_profiler::http::Result<Response> {
        let t = Instant::now();
        let result = self.inner.exchange(req);
        let ns = ns_since(t);
        // A 403 on a hidden friend list is an answer, not a failure.
        let failed = match &result {
            Ok(resp) => resp.status.code() >= 500 || resp.status.code() == 429,
            Err(_) => true,
        };
        if failed {
            self.log.failed.fetch_add(1, Ordering::Relaxed);
        }
        self.log.samples_ns.lock().expect("transport log poisoned").push(ns);
        result
    }

    fn clear_session(&mut self) {
        self.inner.clear_session()
    }

    fn transport_state(&self) -> TransportState {
        self.inner.transport_state()
    }

    fn restore_transport_state(&mut self, state: &TransportState) {
        self.inner.restore_transport_state(state)
    }
}

/// Calls into one seam and the wall time spent inside them.
#[derive(Default)]
pub struct Tally {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

impl Tally {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn get(&self) -> (u64, u64) {
        (self.calls.load(Ordering::Relaxed), self.ns.load(Ordering::Relaxed))
    }
}

/// `FacebookPolicy` behind a counting, timing `Policy`.
#[derive(Default)]
pub struct ProbePolicy {
    inner: FacebookPolicy,
    pub view: Tally,
    pub friend_list: Tally,
    /// Counted only: the search pool calls it once per candidate, so
    /// timing each call would cost more than the call itself.
    pub search_filter: AtomicU64,
}

impl Policy for ProbePolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stranger_view(&self, net: &Network, target: UserId) -> PublicView {
        self.view.time(|| self.inner.stranger_view(net, target))
    }

    fn searchable_by_school(&self, net: &Network, user: UserId, school: SchoolId) -> bool {
        self.search_filter.fetch_add(1, Ordering::Relaxed);
        self.inner.searchable_by_school(net, user, school)
    }

    fn friend_list_stranger_visible(&self, net: &Network, user: UserId) -> bool {
        self.inner.friend_list_stranger_visible(net, user)
    }

    fn reverse_lookup_enabled(&self) -> bool {
        self.inner.reverse_lookup_enabled()
    }

    fn visible_circles(&self, net: &Network, owner: UserId, incoming: bool) -> Option<Vec<UserId>> {
        self.inner.visible_circles(net, owner, incoming)
    }

    fn visible_friend_list(&self, net: &Network, owner: UserId) -> Option<Vec<UserId>> {
        self.friend_list.time(|| self.inner.visible_friend_list(net, owner))
    }
}

/// Platform routes the attack uses, as the handler probe counts them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    FindFriends,
    Profile,
    Friends,
    Auth,
    Other,
}

impl Route {
    fn of(target: &str) -> Route {
        let path = target.split('?').next().unwrap_or(target);
        if path == "/find-friends" {
            Route::FindFriends
        } else if path.starts_with("/profile/") {
            Route::Profile
        } else if path.starts_with("/friends/") {
            Route::Friends
        } else if path == "/signup" || path == "/login" {
            Route::Auth
        } else {
            Route::Other
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One request/response pair kept for re-timing leaf functions.
pub struct Captured {
    pub route: Route,
    pub target: String,
    /// The request's `x-virtual-now-ms`, when it carried one.
    pub stamp: Option<u64>,
    pub response: Response,
}

/// Per-request records of the handler probe, behind one lock.
#[derive(Default)]
struct Samples {
    handle_ns: Vec<u64>,
    /// Hashes of the (target, generation) pairs served so far.
    served: HashSet<u64>,
    captured: Vec<Captured>,
}

/// Counters of the handler probe; per-attack figures are differences
/// of two readings.
#[derive(Default)]
pub struct HandlerStats {
    pub busy_ns: AtomicU64,
    pub routes: [AtomicU64; 5],
    pub response_bytes: AtomicU64,
    pub gets: AtomicU64,
    pub repeat_gets: AtomicU64,
    samples: Mutex<Samples>,
}

impl HandlerStats {
    fn samples(&self) -> std::sync::MutexGuard<'_, Samples> {
        self.samples.lock().expect("handler samples poisoned")
    }

    pub fn handle_samples_from(&self, start: usize) -> Vec<u64> {
        self.samples().handle_ns[start..].to_vec()
    }

    pub fn handle_sample_count(&self) -> usize {
        self.samples().handle_ns.len()
    }

    pub fn take_captured(&self) -> Vec<Captured> {
        std::mem::take(&mut self.samples().captured)
    }
}

/// `Platform::into_handler()` behind a counting, timing `Handler`.
pub struct ProbeHandler {
    inner: Arc<dyn Handler>,
    mutations: Arc<MutationEngine>,
    pub stats: HandlerStats,
    /// Keep request/response pairs for re-timing while set.
    pub capture: AtomicBool,
}

impl ProbeHandler {
    pub fn new(inner: Arc<dyn Handler>, mutations: Arc<MutationEngine>) -> Arc<ProbeHandler> {
        Arc::new(ProbeHandler {
            inner,
            mutations,
            stats: HandlerStats::default(),
            capture: AtomicBool::new(false),
        })
    }
}

impl Handler for ProbeHandler {
    fn handle(&self, req: &Request) -> Response {
        let t = Instant::now();
        let resp = self.inner.handle(req);
        let ns = ns_since(t);
        let s = &self.stats;
        s.busy_ns.fetch_add(ns, Ordering::Relaxed);
        let route = Route::of(&req.target);
        s.routes[route.index()].fetch_add(1, Ordering::Relaxed);
        s.response_bytes.fetch_add(resp.body.len() as u64, Ordering::Relaxed);
        let stamp = req.headers.get(H_VIRTUAL_NOW).and_then(|v| v.parse::<u64>().ok());
        let key = (route != Route::Auth).then(|| {
            // A frozen world is generation 0 for every request.
            let generation = match (self.mutations.is_live(), stamp) {
                (true, Some(now)) => self.mutations.generation_at(now),
                _ => 0,
            };
            let mut h = std::collections::hash_map::DefaultHasher::new();
            (&req.target, generation).hash(&mut h);
            h.finish()
        });
        let capture = self.capture.load(Ordering::Relaxed).then(|| Captured {
            route,
            target: req.target.clone(),
            stamp,
            response: resp.clone(),
        });
        let mut samples = s.samples();
        samples.handle_ns.push(ns);
        if let Some(key) = key {
            s.gets.fetch_add(1, Ordering::Relaxed);
            if !samples.served.insert(key) {
                s.repeat_gets.fetch_add(1, Ordering::Relaxed);
            }
        }
        if let Some(c) = capture {
            samples.captured.push(c);
        }
        resp
    }
}

/// An `OsnAccess` behind a counting, timing wrapper: the crawler seam
/// that `hsp-core` calls.
pub struct ProbeAccess<'a> {
    inner: &'a mut dyn OsnAccess,
    /// collect_seeds, prefetch_profiles, prefetch_friends, profile, friends.
    pub calls: [u64; 5],
    pub busy_ns: u64,
}

impl<'a> ProbeAccess<'a> {
    pub fn new(inner: &'a mut dyn OsnAccess) -> ProbeAccess<'a> {
        ProbeAccess { inner, calls: [0; 5], busy_ns: 0 }
    }

    fn time<T>(&mut self, slot: usize, f: impl FnOnce(&mut dyn OsnAccess) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.busy_ns += ns_since(t);
        self.calls[slot] += 1;
        out
    }
}

impl OsnAccess for ProbeAccess<'_> {
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError> {
        self.time(0, |a| a.collect_seeds(school))
    }

    fn prefetch_profiles(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        self.time(1, |a| a.prefetch_profiles(uids))
    }

    fn prefetch_friends(&mut self, uids: &[UserId]) -> Result<(), CrawlError> {
        self.time(2, |a| a.prefetch_friends(uids))
    }

    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError> {
        self.time(3, |a| a.profile(uid))
    }

    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
        self.time(4, |a| a.friends(uid))
    }

    fn effort(&self) -> Effort {
        self.inner.effort()
    }

    fn incomplete_friends(&self) -> Vec<UserId> {
        self.inner.incomplete_friends()
    }

    fn tombstoned_users(&self) -> Vec<UserId> {
        self.inner.tombstoned_users()
    }

    fn send_message(&mut self, uid: UserId, body: &str) -> Result<bool, CrawlError> {
        self.inner.send_message(uid, body)
    }

    fn circles(&mut self, uid: UserId, incoming: bool) -> Result<Option<Vec<UserId>>, CrawlError> {
        self.inner.circles(uid, incoming)
    }

    fn checkpoint(&self) -> CrawlSnapshot {
        self.inner.checkpoint()
    }

    fn virtual_elapsed_ms(&self) -> u64 {
        self.inner.virtual_elapsed_ms()
    }
}
