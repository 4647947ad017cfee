//! The soak: the full HS1 attack under combined hostility, swept across
//! seeds. The hardened server (tiny queue, tight deadlines, edge
//! limiter) serves the fault-injecting platform (`FaultPlan::chaos()`)
//! over real TCP while background clients push it into sustained
//! shedding, and the attack runs through `ResilientExchange ∘
//! ChaosTransport ∘ Client`.
//!
//! Over TCP, wall-clock scheduling decides where shed responses land,
//! so fault *placement* is not replayable and the soak asserts
//! invariants of the outcome rather than byte-identical telemetry.
//! Each seed must hold every one of them, and a violation panics naming
//! the seed:
//!
//! * Table 4 and the guessed list equal the fault-free HS1 run (chaos
//!   may change what the attack costs, never what it finds);
//! * zero double-sent POSTs: POST redeliveries ≤ intentional auth
//!   retries;
//! * the request ledger closes at every layer: `Effort` ≡ the crawler's
//!   `crawler_fetch_total` counters; crawler attempts ≡ chaos
//!   delivered plus aborted-before; server requests ≡ routed plus
//!   edge-rate-limited, with zero decode errors; the platform serves
//!   `delivered − refused` of the crawler's requests, short by at most
//!   8 (`LEDGER_SLACK`);
//! * the overload blast sheds, and admitted requests keep a p99 within
//!   1,500 ms in both phases;
//! * drain finishes within `drain_deadline` + 3 s and refuses a
//!   newcomer.
//!
//! Across the sweep: zero panics anywhere in the process, RSS growth
//! within 512 MB, and at least one server-side shed.

use crate::ctx::Ctx;
use crate::report::ExperimentReport;
use crate::runner::{attack_phases, Attacker, Lab};
use crate::tablefmt::Table;
use hsp_core::{evaluate, EvalPoint};
use hsp_crawler::OsnAccess;
use hsp_graph::UserId;
use hsp_http::{
    is_edge_limited, is_shed, ChaosPlan, Client, Exchange, RateLimit, Request, ServerConfig,
};
use hsp_platform::FaultPlan;
use hsp_synth::ScenarioConfig;
use serde::Serialize;
use serde_json::json;
use std::net::SocketAddr;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seeds swept: `BASE_SEED + i * SEED_STEP` for `i < SEEDS`.
const SEEDS: u64 = 8;
const BASE_SEED: u64 = 0x50AC_2013;
const SEED_STEP: u64 = 0x9e37_79b9;

/// The overload blast: this many one-shot clients, each sending this
/// many requests, against 6 workers and a queue of 2.
const BLAST_THREADS: usize = 12;
const BLAST_REQUESTS_EACH: u64 = 150;
/// Paced clients keeping the server contended during the attack.
const BACKGROUND_THREADS: usize = 2;

/// Ledger slack for inherently racy TCP edges (a shed 503 whose close
/// beats the client's read, an idle reap racing a request): each such
/// event can make the platform serve one fewer request than
/// `delivered − refused` predicts. Losses only — the gap is one-sided.
const LEDGER_SLACK: u64 = 8;

/// Client-observed p99 bound for requests the server *admitted* while
/// it was actively shedding load.
const ADMITTED_P99_BOUND_MS: u64 = 1_500;

/// Resident-set growth allowed across the whole sweep.
const RSS_GROWTH_BOUND_MB: u64 = 512;

fn hardened_config() -> ServerConfig {
    ServerConfig {
        workers: 6,
        queue_depth: 2,
        max_connections: 32,
        // Safety-valve sizing: never throttles the legitimate attack
        // rate, still caps a runaway flood.
        rate_limit: Some(RateLimit { burst: 2_000, per_sec: 10_000.0 }),
        read_timeout: Duration::from_secs(5),
        request_deadline: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(2),
        ..ServerConfig::default()
    }
}

/// Outcome classification for one background request.
#[derive(Default)]
struct LoadTally {
    sent: u64,
    /// Served by a platform handler (any status without `Retry-After`).
    handled: u64,
    shed: u64,
    rate_limited: u64,
    latencies_us: Vec<u64>,
}

impl LoadTally {
    fn absorb(&mut self, other: LoadTally) {
        self.sent += other.sent;
        self.handled += other.handled;
        self.shed += other.shed;
        self.rate_limited += other.rate_limited;
        self.latencies_us.extend(other.latencies_us);
    }

    /// The admitted requests' p99 latency, in microseconds.
    fn p99_us(&mut self) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        self.latencies_us.sort_unstable();
        let n = self.latencies_us.len();
        let rank = ((n as f64 * 0.99).ceil() as usize).clamp(1, n);
        self.latencies_us[rank - 1]
    }
}

/// One connection-per-request GET, tallied by outcome. A transport
/// failure (the shed-close reset race) counts as sent only.
fn one_shot(addr: SocketAddr, tally: &mut LoadTally) {
    let mut client = Client::new(addr);
    let started = Instant::now();
    tally.sent += 1;
    if let Ok(resp) = client.exchange(Request::get("/profile/1")) {
        // Edge refusals (shed 503, edge-limiter 429) never reached a
        // handler; everything else — including fault-injected 429s and
        // 5xxs — was served by the platform and is route-counted.
        if is_shed(&resp) {
            tally.shed += 1;
        } else if is_edge_limited(&resp) {
            tally.rate_limited += 1;
        } else {
            tally.handled += 1;
            tally.latencies_us.push(started.elapsed().as_micros() as u64);
        }
    }
}

/// Overload blast: peak concurrency exceeds workers + queue depth, so
/// the bounded admission path *must* shed.
fn blast(addr: SocketAddr) -> LoadTally {
    let handles: Vec<_> = (0..BLAST_THREADS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut tally = LoadTally::default();
                for _ in 0..BLAST_REQUESTS_EACH {
                    one_shot(addr, &mut tally);
                }
                tally
            })
        })
        .collect();
    let mut total = LoadTally::default();
    for h in handles {
        total.absorb(h.join().expect("blast thread"));
    }
    total
}

/// Paced background load running until `stop` flips: keeps the server
/// contended (and occasionally shedding) for the whole attack.
fn background_load(addr: SocketAddr, stop: &Arc<AtomicBool>) -> Vec<JoinHandle<LoadTally>> {
    (0..BACKGROUND_THREADS)
        .map(|_| {
            let stop = Arc::clone(stop);
            std::thread::spawn(move || {
                let mut tally = LoadTally::default();
                while !stop.load(Ordering::Relaxed) {
                    one_shot(addr, &mut tally);
                    std::thread::sleep(Duration::from_millis(2));
                }
                tally
            })
        })
        .collect()
}

fn rss_mb() -> u64 {
    hsp_obs::read_memory().current_rss_bytes.unwrap_or(0) / (1024 * 1024)
}

/// One seed's headline numbers; every invariant has held by the time
/// one exists.
#[derive(Serialize)]
struct SeedReport {
    seed: u64,
    found: usize,
    correct_year: usize,
    total_requests: u64,
    retries: u64,
    sheds_absorbed_by_crawler: u64,
    server_sheds: u64,
    server_rate_limited: u64,
    chaos_faults: u64,
    chaos_delivered: u64,
    chaos_aborted_before: u64,
    post_redeliveries: u64,
    auth_retries: u64,
    ledger_gap: u64,
    politeness_widen_factor: u64,
    blast_p99_ms: f64,
    attack_bg_p99_ms: f64,
    drain_wall_ms: u64,
    drained_connections: u64,
    drain_rejects: u64,
    rss_mb: u64,
}

/// Blast, attack under background load, audit, drain — one seed.
fn soak_seed(
    cfg: &ScenarioConfig,
    seed: u64,
    base_guessed: &[UserId],
    base_table4: &EvalPoint,
) -> SeedReport {
    let mut lab = Lab::facebook_chaotic(cfg, FaultPlan::chaos());
    let addr = lab.serve_hardened(hardened_config()).expect("bind soak server");

    // Phase 1: the overload blast. Bounded admission must shed, and
    // what it admits must stay fast.
    let mut blast_tally = blast(addr);
    let blast_p99_us = blast_tally.p99_us();
    assert!(
        blast_tally.shed > 0,
        "seed {seed:#x}: the overload blast produced no shed 503s \
         ({} sent, {} handled, {} rate-limited)",
        blast_tally.sent,
        blast_tally.handled,
        blast_tally.rate_limited
    );
    assert!(
        blast_p99_us / 1_000 <= ADMITTED_P99_BOUND_MS,
        "seed {seed:#x}: blast-phase admitted p99 {}ms exceeds {ADMITTED_P99_BOUND_MS}ms",
        blast_p99_us / 1_000
    );

    // Phase 2: the attack under combined hostility.
    let stop = Arc::new(AtomicBool::new(false));
    let background = background_load(addr, &stop);
    let plan = ChaosPlan::chaos().with_seed(seed ^ 0xC4A0_2013);
    let Attacker { mut crawler, retry_stats, chaos_stats: chaos } =
        lab.crawler(2, "soak").seed(seed).chaos(&plan).tcp(true).build();
    let config = lab.attack_config();
    let outcome = attack_phases(&lab.obs, &config, lab.scenario.home_city, &mut crawler);
    stop.store(true, Ordering::Relaxed);
    let mut attack_bg = LoadTally::default();
    for h in background {
        attack_bg.absorb(h.join().expect("background load thread"));
    }
    let attack_bg_p99_us = attack_bg.p99_us();
    assert!(
        attack_bg_p99_us / 1_000 <= ADMITTED_P99_BOUND_MS,
        "seed {seed:#x}: attack-phase admitted p99 {}ms exceeds {ADMITTED_P99_BOUND_MS}ms",
        attack_bg_p99_us / 1_000
    );

    // Phase 3: audits.
    let (_, _, enhanced) =
        outcome.unwrap_or_else(|e| panic!("seed {seed:#x}: the attack died: {e}"));
    let t = config.school_size_estimate as usize;
    let guessed = enhanced.guessed_students(t);
    let table4 = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &lab.ground_truth());
    assert!(
        guessed == base_guessed && table4 == *base_table4,
        "seed {seed:#x}: Table 4 diverged from the fault-free run \
         (found {} vs {}, correct-year {} vs {})",
        table4.found,
        base_table4.found,
        table4.correct_year,
        base_table4.correct_year
    );

    let snap = lab.obs.snapshot();
    let effort = crawler.effort();

    // Effort buckets ≡ the crawler's own observability counters.
    let fetch = |e: &str| snap.counter(&format!("crawler_fetch_total{{endpoint=\"{e}\"}}"));
    for (endpoint, counted, bucket) in [
        ("auth", fetch("auth"), effort.auth_requests),
        ("find-friends", fetch("find-friends"), effort.seed_requests),
        ("profile", fetch("profile"), effort.profile_requests),
        ("message", fetch("message"), effort.message_requests),
        ("retry", fetch("retry"), effort.retry_requests),
        ("friends + circles", fetch("friends") + fetch("circles"), effort.friend_list_requests),
    ] {
        assert_eq!(counted, bucket, "seed {seed:#x}: Effort/metrics mismatch for {endpoint}");
    }

    // Crawler attempts ≡ chaos ledger.
    let attempts = effort.total() + effort.auth_requests + effort.message_requests;
    assert_eq!(
        attempts,
        chaos.delivered() + chaos.aborted_before(),
        "seed {seed:#x}: attempts ledger broken: {attempts} attempts vs {} delivered + {} aborted",
        chaos.delivered(),
        chaos.aborted_before()
    );

    // Server-side closure: every answered request is either a platform
    // route hit or an edge rate-limit; nothing vanishes.
    let route_total: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("http_route_requests_total{"))
        .map(|(_, v)| v)
        .sum();
    let server_requests = snap.counter("http_server_requests_total");
    let server_rate_limited = snap.counter("http_server_rate_limited_total");
    assert_eq!(
        server_requests,
        route_total + server_rate_limited,
        "seed {seed:#x}: server ledger broken: {server_requests} answered vs \
         {route_total} routed + {server_rate_limited} rate-limited"
    );
    assert_eq!(
        snap.counter("http_server_decode_errors_total"),
        0,
        "seed {seed:#x}: the server saw decode errors from well-formed clients"
    );

    // The money audit: platform served-request count ≡ what the chaos
    // transport says it delivered minus what the edge refused. The
    // background load accounts for itself; the remainder is the crawler.
    let crawler_handled = route_total.saturating_sub(blast_tally.handled + attack_bg.handled);
    let expected = chaos.delivered().saturating_sub(chaos.refused());
    let ledger_gap = expected.saturating_sub(crawler_handled);
    assert!(
        crawler_handled <= expected && ledger_gap <= LEDGER_SLACK,
        "seed {seed:#x}: platform audit broken: {crawler_handled} served vs \
         {} delivered − {} refused (gap {ledger_gap}, slack {LEDGER_SLACK})",
        chaos.delivered(),
        chaos.refused()
    );

    // Zero double-sent POSTs: every redelivered POST fingerprint must be
    // an intentional application-level auth retry.
    assert!(
        chaos.post_redeliveries() <= crawler.auth_retries(),
        "seed {seed:#x}: {} POST redeliveries exceed {} intentional auth retries — \
         a transport layer silently replayed a POST",
        chaos.post_redeliveries(),
        crawler.auth_retries()
    );

    let server_sheds = snap.counter("http_server_shed_total{reason=\"queue_full\"}")
        + snap.counter("http_server_shed_total{reason=\"max_connections\"}");

    // Phase 4: graceful drain. A newcomer during drain is refused
    // politely (503 or a clean close), never left hanging.
    let drain_started = Instant::now();
    lab.server().expect("server running").begin_drain();
    if let Ok(resp) = Client::new(addr).exchange(Request::get("/profile/1")) {
        assert_eq!(
            resp.status.code(),
            503,
            "seed {seed:#x}: drain admitted new work (status {})",
            resp.status.code()
        );
    }
    lab.stop_serving();
    let drain_wall_ms = drain_started.elapsed().as_millis() as u64;
    let drain_budget = hardened_config().drain_deadline + Duration::from_secs(3);
    assert!(
        drain_wall_ms <= drain_budget.as_millis() as u64,
        "seed {seed:#x}: drain took {drain_wall_ms}ms (budget {}ms)",
        drain_budget.as_millis()
    );
    let final_snap = lab.obs.snapshot();

    SeedReport {
        seed,
        found: table4.found,
        correct_year: table4.correct_year,
        total_requests: effort.total(),
        retries: effort.retry_requests,
        sheds_absorbed_by_crawler: retry_stats.sheds(),
        server_sheds,
        server_rate_limited,
        chaos_faults: chaos.total_faults(),
        chaos_delivered: chaos.delivered(),
        chaos_aborted_before: chaos.aborted_before(),
        post_redeliveries: chaos.post_redeliveries(),
        auth_retries: crawler.auth_retries(),
        ledger_gap,
        politeness_widen_factor: crawler.politeness_widen_factor(),
        blast_p99_ms: blast_p99_us as f64 / 1_000.0,
        attack_bg_p99_ms: attack_bg_p99_us as f64 / 1_000.0,
        drain_wall_ms,
        drained_connections: final_snap.counter("http_server_drained_total"),
        drain_rejects: final_snap.counter("http_server_shutdown_rejects_total"),
        rss_mb: rss_mb(),
    }
}

/// The soak sweep at HS1 (see the module docs for its gates). The
/// fault-free yardstick is the context's cached HS1 run, whose results
/// do not depend on `--tcp` or `--workers`; the soak's own attacks
/// always run over TCP with the fixed crawler above, so neither option
/// applies to them.
pub fn soak(ctx: &mut Ctx) -> ExperimentReport {
    let (base_guessed, base_table4) = {
        let sr = ctx.school("HS1");
        let run = &sr.run;
        let t = run.config.school_size_estimate as usize;
        let guessed = run.enhanced.guessed_students(t);
        let truth = sr.lab.ground_truth();
        let table4 = evaluate(t, &guessed, |u| run.enhanced.inferred_year(u, &run.config), &truth);
        (guessed, table4)
    };
    let cfg = Ctx::config_for("HS1");

    // Count every panic in the process, on any thread, for the sweep
    // only; the previous hook still runs and is restored afterwards.
    let panics = Arc::new(AtomicU64::new(0));
    let previous = Arc::new(std::panic::take_hook());
    {
        let (panics, previous) = (Arc::clone(&panics), Arc::clone(&previous));
        std::panic::set_hook(Box::new(move |info| {
            panics.fetch_add(1, Ordering::SeqCst);
            previous(info);
        }));
    }
    let rss_start = rss_mb();
    let swept = std::panic::catch_unwind(AssertUnwindSafe(|| {
        (0..SEEDS)
            .map(|i| {
                let seed = BASE_SEED.wrapping_add(i.wrapping_mul(SEED_STEP));
                soak_seed(&cfg, seed, &base_guessed, &base_table4)
            })
            .collect::<Vec<_>>()
    }));
    drop(std::panic::take_hook());
    std::panic::set_hook(
        Arc::into_inner(previous).expect("taking the soak's hook dropped the only other owner"),
    );
    let rows = swept.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    let rss_end = rss_mb();

    let panic_count = panics.load(Ordering::SeqCst);
    assert_eq!(panic_count, 0, "{panic_count} panic(s) observed during the soak");
    let growth = rss_end.saturating_sub(rss_start);
    assert!(
        growth <= RSS_GROWTH_BOUND_MB,
        "memory growth {growth}MB exceeds the {RSS_GROWTH_BOUND_MB}MB bound"
    );
    let server_sheds: u64 = rows.iter().map(|r| r.server_sheds).sum();
    assert!(server_sheds > 0, "no server-side sheds across the whole sweep");
    let chaos_faults: u64 = rows.iter().map(|r| r.chaos_faults).sum();

    let mut table = Table::new(&[
        "seed",
        "found",
        "year",
        "requests",
        "retries",
        "sheds",
        "chaos",
        "redlvr",
        "gap",
        "blast p99 ms",
        "attack p99 ms",
        "drain ms",
        "rss MB",
    ]);
    for r in &rows {
        table.row(&[
            format!("{:#x}", r.seed),
            r.found.to_string(),
            r.correct_year.to_string(),
            r.total_requests.to_string(),
            r.retries.to_string(),
            r.server_sheds.to_string(),
            r.chaos_faults.to_string(),
            r.post_redeliveries.to_string(),
            r.ledger_gap.to_string(),
            format!("{:.1}", r.blast_p99_ms),
            format!("{:.1}", r.attack_bg_p99_ms),
            r.drain_wall_ms.to_string(),
            r.rss_mb.to_string(),
        ]);
    }
    let text = format!(
        "Fault-free HS1: found {} / correct-year {} of {} guessed.\n{}\n\
         {SEEDS} seeds clean: {server_sheds} server sheds, {chaos_faults} chaos faults, \
         0 panics, RSS {rss_start} -> {rss_end} MB.\n",
        base_table4.found,
        base_table4.correct_year,
        base_table4.guessed,
        table.render()
    );
    ExperimentReport::new(
        "soak",
        "Soak: the HS1 attack over TCP under overload, platform faults and transport chaos \
         (8 seeds)",
        text,
        json!({
            "seeds": rows,
            "server_sheds": server_sheds,
            "chaos_faults": chaos_faults,
            "panics": panic_count,
            "rss_start_mb": rss_start,
            "rss_end_mb": rss_end,
        }),
    )
}
