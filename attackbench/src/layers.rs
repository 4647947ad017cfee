//! Per-layer accounting of the traced phase.
//!
//! Busy time is the summed wall time inside a layer's calls; self time
//! is busy time minus the part covered by the seams below it:
//!
//! ```text
//! attack thread time = core.self + crawler.busy
//! crawler.busy       = crawler.self + exchange busy
//! exchange busy      = http.transport + platform.busy
//! platform.busy      = platform.self + policy view + policy friend_list
//! ```
//!
//! Leaf functions without a seam of their own (render, scrape, wire
//! codec, `world_at`, `rank_candidates`) are re-timed after the traced
//! phase on inputs captured during its first attack.

use crate::probe::{Captured, ProbeHandler, ProbePolicy, Route};
use crate::stats::{median, p50_p99_us};
use hs_profiler::core::{rank_candidates, AttackConfig, CoreUser};
use hs_profiler::crawler::scrape::parse_listing_stamped;
use hs_profiler::crawler::{parse_profile, Effort};
use hs_profiler::graph::{Network, UserId};
use hs_profiler::http::wire::{decode_response, encode_response, Decoded};
use hs_profiler::obs::Registry;
use hs_profiler::platform::{render, MutationEngine, MutationPlan};
use hs_profiler::policy::{FacebookPolicy, Policy};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// The two seam probes mounted on one traced platform.
pub struct Probes {
    pub policy: Arc<ProbePolicy>,
    pub handler: Arc<ProbeHandler>,
}

/// A reading of the probes' cumulative counters.
#[derive(Clone, Copy, Default)]
pub struct Reading {
    view: (u64, u64),
    friend_list: (u64, u64),
    search_filter: u64,
    routes: [u64; 5],
    busy_ns: u64,
    response_bytes: u64,
    gets: u64,
    repeat_gets: u64,
    handle_samples: usize,
}

impl Probes {
    pub fn reading(&self) -> Reading {
        let h = &self.handler.stats;
        let load = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
        Reading {
            view: self.policy.view.get(),
            friend_list: self.policy.friend_list.get(),
            search_filter: load(&self.policy.search_filter),
            routes: std::array::from_fn(|i| load(&h.routes[i])),
            busy_ns: load(&h.busy_ns),
            response_bytes: load(&h.response_bytes),
            gets: load(&h.gets),
            repeat_gets: load(&h.repeat_gets),
            handle_samples: h.handle_sample_count(),
        }
    }

    /// Fill the platform and policy fields of `layers` with what the
    /// probes saw since `before`.
    pub fn fill(&self, before: &Reading, layers: &mut Layers) {
        let now = self.reading();
        layers.view = (now.view.0 - before.view.0, now.view.1 - before.view.1);
        layers.friend_list =
            (now.friend_list.0 - before.friend_list.0, now.friend_list.1 - before.friend_list.1);
        layers.search_filter = now.search_filter - before.search_filter;
        layers.routes = std::array::from_fn(|i| now.routes[i] - before.routes[i]);
        layers.platform_ns = now.busy_ns - before.busy_ns;
        layers.response_bytes = now.response_bytes - before.response_bytes;
        layers.gets = now.gets - before.gets;
        layers.repeat_gets = now.repeat_gets - before.repeat_gets;
        layers.handle_ns = self.handler.stats.handle_samples_from(before.handle_samples);
    }
}

/// Journal figures of one journaled attack.
#[derive(Clone, Copy, Default)]
pub struct JournalFigures {
    pub records: u64,
    pub bytes: u64,
    pub groups: u64,
    pub write_ns: u64,
    pub recover_ns: u64,
}

/// What one traced attack measured at the seams. On `metro_city` the
/// time fields are summed over the schools, so they are thread time.
#[derive(Default)]
pub struct Layers {
    /// Summed wall time of the attack's threads.
    pub thread_ns: u64,
    pub view: (u64, u64),
    pub friend_list: (u64, u64),
    pub search_filter: u64,
    pub routes: [u64; 5],
    pub platform_ns: u64,
    pub handle_ns: Vec<u64>,
    pub response_bytes: u64,
    pub gets: u64,
    pub repeat_gets: u64,
    /// Summed transport time of the attack's seats, and its samples.
    pub exchange_ns: u64,
    pub exchange_samples: Vec<u64>,
    pub access_calls: [u64; 5],
    /// Crawler construction (account sign-up and login).
    pub build_ns: u64,
    /// Time inside `OsnAccess` calls.
    pub access_ns: u64,
    /// Wall time of `run_basic` + `run_enhanced` + `evaluate`.
    pub core_wall_ns: u64,
    pub effort: Effort,
    pub candidates: u64,
    pub server_connections: u64,
    pub server_shed: u64,
    pub journal: JournalFigures,
    pub mutations_scheduled: u64,
    pub mutations_applied: u64,
}

impl Layers {
    fn crawler_busy_ns(&self) -> u64 {
        self.build_ns + self.access_ns
    }
}

/// Leaf functions re-timed on captured inputs.
#[derive(Default)]
pub struct Retimed {
    pub render_calls: u64,
    pub render_ns: u64,
    pub scrape_profile_ns: u64,
    pub scrape_listing_ns: u64,
    pub scrape_bytes: u64,
    pub wire_encode_ns: u64,
    pub wire_decode_ns: u64,
    pub world_at_ns: u64,
    pub world_at_p99_us: f64,
    pub generations_served: u64,
    pub rank_ns: u64,
}

/// A live world to replay `world_at` on: the plan and base network the
/// captured attack's platform was mounted with, and the state digest
/// its mutation engine ended with.
pub struct LiveReplay {
    pub plan: MutationPlan,
    pub state_digest: u64,
}

fn profile_uid(target: &str) -> Option<UserId> {
    target.strip_prefix("/profile/").and_then(|rest| UserId::parse(rest.split('?').next()?))
}

fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = black_box(f());
    *ns += t.elapsed().as_nanos() as u64;
    out
}

/// Re-time the leaf functions over one attack's captures. On a live
/// world the captured stamps are replayed through `world_at` on a fresh
/// engine with its own registry, whose state digest must then equal the
/// captured platform's: that checks the capture is complete.
pub fn retime(
    captured: &[Captured],
    net: &Arc<Network>,
    live: Option<&LiveReplay>,
    wire: bool,
    cores: &[(AttackConfig, Vec<CoreUser>)],
) -> Result<Retimed, String> {
    let mut r = Retimed::default();
    let policy = FacebookPolicy::new();
    let engine =
        live.map(|l| MutationEngine::new(l.plan.clone(), Arc::clone(net), Registry::shared()));
    let mut world_at_samples = Vec::new();
    let mut generations = BTreeSet::new();
    for c in captured {
        let world = match (&engine, c.stamp) {
            (Some(engine), Some(now)) if c.route != Route::Auth => {
                generations.insert(engine.generation_at(now));
                let t = Instant::now();
                let world = engine.world_at(now);
                world_at_samples.push(t.elapsed().as_nanos() as u64);
                Some(world)
            }
            _ => None,
        };
        if c.route == Route::Profile && c.response.status.code() == 200 {
            if let Some(uid) = profile_uid(&c.target) {
                match &world {
                    Some(w) if w.tombstoned(uid) => {}
                    Some(w) => {
                        timed(&mut r.render_ns, || {
                            let view = policy.stranger_view(&w.network, uid);
                            render::profile_page_stamped(&w.network, &view, w.user_generation(uid))
                        });
                        r.render_calls += 1;
                    }
                    None => {
                        timed(&mut r.render_ns, || {
                            render::profile_page(net, &policy.stranger_view(net, uid))
                        });
                        r.render_calls += 1;
                    }
                }
            }
        }
        if c.response.status.code() == 200 {
            let body = &c.response.body;
            match c.route {
                Route::Profile => {
                    timed(&mut r.scrape_profile_ns, || {
                        parse_profile(&String::from_utf8_lossy(body))
                    });
                    r.scrape_bytes += body.len() as u64;
                }
                Route::FindFriends | Route::Friends => {
                    timed(&mut r.scrape_listing_ns, || {
                        parse_listing_stamped(&String::from_utf8_lossy(body))
                    });
                    r.scrape_bytes += body.len() as u64;
                }
                Route::Auth | Route::Other => {}
            }
        }
        if wire {
            let encoded = timed(&mut r.wire_encode_ns, || encode_response(&c.response));
            let mut buf = bytes::BytesMut::with_capacity(encoded.len());
            buf.extend_from_slice(&encoded);
            let decoded = timed(&mut r.wire_decode_ns, || decode_response(&mut buf));
            match decoded {
                Ok(Decoded::Complete(resp)) if resp.body.len() == c.response.body.len() => {}
                _ => return Err(format!("wire round trip of {} failed", c.target)),
            }
        }
    }
    for (config, core) in cores {
        timed(&mut r.rank_ns, || rank_candidates(config, core));
    }
    if let (Some(engine), Some(live)) = (&engine, live) {
        if engine.state_digest() != live.state_digest {
            return Err(format!(
                "world_at replay digest {:#018x} != platform's {:#018x}: capture incomplete",
                engine.state_digest(),
                live.state_digest
            ));
        }
        r.world_at_ns = world_at_samples.iter().sum();
        r.world_at_p99_us = p50_p99_us(&mut world_at_samples).1;
        r.generations_served = generations.len() as u64;
    }
    Ok(r)
}

/// Name and unit of each per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.build_s", "s"),
    ("synth.users_per_s", "users/s"),
    ("policy.view.calls", "count"),
    ("policy.view.busy_s", "s"),
    ("policy.friend_list.calls", "count"),
    ("policy.friend_list.busy_s", "s"),
    ("policy.search_filter.calls", "count"),
    ("platform.requests.find_friends", "count"),
    ("platform.requests.profile", "count"),
    ("platform.requests.friends", "count"),
    ("platform.requests.auth", "count"),
    ("platform.busy_s", "s"),
    ("platform.self_s", "s"),
    ("platform.handle_us.p50", "us"),
    ("platform.handle_us.p99", "us"),
    ("platform.response_bytes", "bytes"),
    ("platform.repeat_share", "ratio"),
    ("render.profile.calls", "count"),
    ("render.profile.busy_s", "s"),
    ("mutations.scheduled", "count"),
    ("mutations.applied", "count"),
    ("mutations.generations_served", "count"),
    ("mutations.world_at.busy_s", "s"),
    ("mutations.world_at.p99_us", "us"),
    ("http.exchange_us.p50", "us"),
    ("http.exchange_us.p99", "us"),
    ("http.transport_s", "s"),
    ("http.wire.encode_s", "s"),
    ("http.wire.decode_s", "s"),
    ("http.server.connections", "count"),
    ("http.server.shed", "count"),
    ("crawler.calls.collect_seeds", "count"),
    ("crawler.calls.prefetch_profiles", "count"),
    ("crawler.calls.prefetch_friends", "count"),
    ("crawler.calls.profile", "count"),
    ("crawler.calls.friends", "count"),
    ("crawler.busy_s", "s"),
    ("crawler.self_s", "s"),
    ("crawler.requests.seed", "count"),
    ("crawler.requests.profile", "count"),
    ("crawler.requests.friend_list", "count"),
    ("crawler.requests.auth", "count"),
    ("scrape.profile.busy_s", "s"),
    ("scrape.listing.busy_s", "s"),
    ("scrape.bytes", "bytes"),
    ("core.self_s", "s"),
    ("core.rank.busy_s", "s"),
    ("core.candidates", "count"),
    ("journal.records", "count"),
    ("journal.bytes", "bytes"),
    ("journal.groups", "count"),
    ("journal.write_s", "s"),
    ("journal.recover_s", "s"),
    ("obs.trace_overhead_pct", "%"),
];

/// Everything the per-layer metrics are made from.
pub struct TraceSummary<'a> {
    pub attacks: &'a [Layers],
    pub retimed: &'a Retimed,
    pub synth_build_s: f64,
    pub synth_users: u64,
    pub trace_overhead_pct: f64,
}

/// Every per-layer metric with its value and unit, in [`PER_LAYER`]
/// order. Per-attack figures are medians over the traced attacks;
/// latency percentiles pool the samples of all of them.
pub fn per_layer(s: &TraceSummary) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&s.attacks.iter().map(f).collect::<Vec<_>>());
    let secs = |ns: u64| ns as f64 / 1e9;
    let mut handle: Vec<u64> = s.attacks.iter().flat_map(|l| l.handle_ns.iter().copied()).collect();
    let (handle_p50, handle_p99) = p50_p99_us(&mut handle);
    let mut exchange: Vec<u64> =
        s.attacks.iter().flat_map(|l| l.exchange_samples.iter().copied()).collect();
    let (exchange_p50, exchange_p99) = p50_p99_us(&mut exchange);
    let r = s.retimed;
    let value = |name: &str| -> f64 {
        match name {
            "synth.build_s" => s.synth_build_s,
            "synth.users_per_s" => s.synth_users as f64 / s.synth_build_s,
            "policy.view.calls" => med(&|l| l.view.0 as f64),
            "policy.view.busy_s" => med(&|l| secs(l.view.1)),
            "policy.friend_list.calls" => med(&|l| l.friend_list.0 as f64),
            "policy.friend_list.busy_s" => med(&|l| secs(l.friend_list.1)),
            "policy.search_filter.calls" => med(&|l| l.search_filter as f64),
            "platform.requests.find_friends" => med(&|l| l.routes[0] as f64),
            "platform.requests.profile" => med(&|l| l.routes[1] as f64),
            "platform.requests.friends" => med(&|l| l.routes[2] as f64),
            "platform.requests.auth" => med(&|l| l.routes[3] as f64),
            "platform.busy_s" => med(&|l| secs(l.platform_ns)),
            "platform.self_s" => {
                med(&|l| secs(l.platform_ns) - secs(l.view.1) - secs(l.friend_list.1))
            }
            "platform.handle_us.p50" => handle_p50,
            "platform.handle_us.p99" => handle_p99,
            "platform.response_bytes" => med(&|l| l.response_bytes as f64),
            "platform.repeat_share" => med(&|l| l.repeat_gets as f64 / l.gets.max(1) as f64),
            "render.profile.calls" => r.render_calls as f64,
            "render.profile.busy_s" => secs(r.render_ns),
            "mutations.scheduled" => med(&|l| l.mutations_scheduled as f64),
            "mutations.applied" => med(&|l| l.mutations_applied as f64),
            "mutations.generations_served" => r.generations_served as f64,
            "mutations.world_at.busy_s" => secs(r.world_at_ns),
            "mutations.world_at.p99_us" => r.world_at_p99_us,
            "http.exchange_us.p50" => exchange_p50,
            "http.exchange_us.p99" => exchange_p99,
            "http.transport_s" => med(&|l| secs(l.exchange_ns) - secs(l.platform_ns)),
            "http.wire.encode_s" => secs(r.wire_encode_ns),
            "http.wire.decode_s" => secs(r.wire_decode_ns),
            "http.server.connections" => med(&|l| l.server_connections as f64),
            "http.server.shed" => med(&|l| l.server_shed as f64),
            "crawler.calls.collect_seeds" => med(&|l| l.access_calls[0] as f64),
            "crawler.calls.prefetch_profiles" => med(&|l| l.access_calls[1] as f64),
            "crawler.calls.prefetch_friends" => med(&|l| l.access_calls[2] as f64),
            "crawler.calls.profile" => med(&|l| l.access_calls[3] as f64),
            "crawler.calls.friends" => med(&|l| l.access_calls[4] as f64),
            "crawler.busy_s" => med(&|l| secs(l.crawler_busy_ns())),
            "crawler.self_s" => med(&|l| secs(l.crawler_busy_ns()) - secs(l.exchange_ns)),
            "crawler.requests.seed" => med(&|l| l.effort.seed_requests as f64),
            "crawler.requests.profile" => med(&|l| l.effort.profile_requests as f64),
            "crawler.requests.friend_list" => med(&|l| l.effort.friend_list_requests as f64),
            "crawler.requests.auth" => med(&|l| l.effort.auth_requests as f64),
            "scrape.profile.busy_s" => secs(r.scrape_profile_ns),
            "scrape.listing.busy_s" => secs(r.scrape_listing_ns),
            "scrape.bytes" => r.scrape_bytes as f64,
            "core.self_s" => med(&|l| secs(l.core_wall_ns) - secs(l.access_ns)),
            "core.rank.busy_s" => secs(r.rank_ns),
            "core.candidates" => med(&|l| l.candidates as f64),
            "journal.records" => med(&|l| l.journal.records as f64),
            "journal.bytes" => med(&|l| l.journal.bytes as f64),
            "journal.groups" => med(&|l| l.journal.groups as f64),
            "journal.write_s" => med(&|l| secs(l.journal.write_ns)),
            "journal.recover_s" => med(&|l| secs(l.journal.recover_ns)),
            "obs.trace_overhead_pct" => s.trace_overhead_pct,
            _ => f64::NAN,
        }
    };
    PER_LAYER.iter().map(|&(name, unit)| (name, value(name), unit)).collect()
}

/// Print the split of one traced attack's thread time by layer.
pub fn print_split(attacks: &[Layers]) {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&attacks.iter().map(f).collect::<Vec<_>>());
    let secs = |ns: u64| ns as f64 / 1e9;
    let total = med(&|l| secs(l.thread_ns));
    let rows: [(&str, f64); 6] = [
        ("core.self", med(&|l| secs(l.core_wall_ns) - secs(l.access_ns))),
        ("crawler.self", med(&|l| secs(l.crawler_busy_ns()) - secs(l.exchange_ns))),
        ("http.transport", med(&|l| secs(l.exchange_ns) - secs(l.platform_ns))),
        ("platform.self", med(&|l| secs(l.platform_ns) - secs(l.view.1) - secs(l.friend_list.1))),
        ("policy (view + friend_list)", med(&|l| secs(l.view.1) + secs(l.friend_list.1))),
        (
            "other (between the seams)",
            med(&|l| secs(l.thread_ns) - secs(l.core_wall_ns + l.build_ns)),
        ),
    ];
    println!(
        "split of one attack's thread time ({total:.4} thread-s, median of {} traced attacks):",
        attacks.len()
    );
    for (name, v) in rows {
        println!("  {name:<28} {v:>10.4} s  {:>6.1}%", 100.0 * v / total);
    }
}
