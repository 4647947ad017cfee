//! Seed-replayable soak harness: the full HS1 attack under *combined*
//! hostility — server-side overload (bounded admission, token-bucket
//! edge, slowloris deadlines), handler-level `FaultPlan::chaos()`
//! faults, and a deterministic `ChaosTransport` mangling the crawler's
//! wire — swept across seeds, with a hard audit after every seed:
//!
//! * the attack completes and Table 4 is **identical** to a fault-free
//!   baseline run (chaos may change what the attack *costs*, never what
//!   it *finds*);
//! * zero panics anywhere in the process (a panic hook counts them);
//! * zero double-sent POSTs: every POST the transport redelivered must
//!   be matched by an intentional application-level auth retry;
//! * the request ledger closes at every layer: Effort buckets ≡ the
//!   crawler's observability counters, crawler attempts ≡ chaos
//!   delivered + aborted-before, the server's request count ≡ the
//!   platform's route audit + edge rate-limits, and the platform's
//!   served-request audit reconciles with `delivered − refused` (small
//!   documented slack for TCP close races);
//! * the overloaded server sheds with fast `503 + Retry-After` while
//!   p99 latency for *admitted* requests stays bounded;
//! * graceful drain finishes within its deadline and new connections
//!   are refused, not reset;
//! * memory stays bounded across the sweep (VmRSS growth is checked).
//!
//! On any violation the failing seed is printed and the process exits
//! non-zero. A full (HS1) sweep appends its headline stats to
//! `BENCH_soak.json`; the tiny smoke run prints them instead.
//!
//! ```sh
//! scripts/soak.sh                      # full sweep (8 seeds, HS1)
//! SOAK_SEEDS=2 SOAK_SCENARIO=tiny \
//!   cargo run --release --example soak # smoke mode (check.sh)
//! ```
//!
//! Determinism note: the `ChaosTransport` fault stream is bit-replayable
//! from its seed (proven by unit tests and the `chaos_attack`
//! integration test over the in-process exchange). Over real TCP the
//! *placement* of faults additionally depends on wall-clock-driven shed
//! responses, so the soak asserts invariants of *outcome* — findings,
//! ledgers, safety — rather than byte-identical telemetry.

use hs_profiler::core::{evaluate, run_basic, run_enhanced, EnhanceOptions, EvalPoint};
use hs_profiler::crawler::OsnAccess;
use hs_profiler::experiments::runner::{full_attack, Attacker, Lab};
use hs_profiler::http::{
    is_edge_limited, is_shed, ChaosPlan, Client, Exchange, RateLimit, Request, ServerConfig,
};
use hs_profiler::platform::FaultPlan;
use hs_profiler::synth::ScenarioConfig;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BASE_SEED: u64 = 0x50AC_2013;

/// Ledger slack for inherently racy TCP edges (a shed 503 whose close
/// beats the client's read, an idle reap racing a request): each such
/// event can make the platform serve one fewer request than
/// `delivered − refused` predicts. Losses only — the gap is one-sided.
const LEDGER_SLACK: u64 = 8;

/// Client-observed p99 bound for requests the server *admitted* while
/// it was actively shedding load.
const ADMITTED_P99_BOUND_MS: u64 = 1_500;

/// VmRSS growth allowed across the whole sweep.
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
    /// Transport-level failures (e.g. the shed-close RST race).
    resets: u64,
    latencies_us: Vec<u64>,
}

impl LoadTally {
    fn absorb(&mut self, other: LoadTally) {
        self.sent += other.sent;
        self.handled += other.handled;
        self.shed += other.shed;
        self.rate_limited += other.rate_limited;
        self.resets += other.resets;
        self.latencies_us.extend(other.latencies_us);
    }
}

/// One connection-per-request GET, tallied by outcome.
fn one_shot(addr: std::net::SocketAddr, tally: &mut LoadTally) {
    let mut client = Client::new(addr);
    let started = Instant::now();
    tally.sent += 1;
    match client.exchange(Request::get("/profile/1")) {
        Ok(resp) => {
            // Edge refusals (shed 503, edge-limiter 429) never reached a
            // handler; everything else — including fault-injected 429s
            // and 5xxs — was served by the platform and is route-counted.
            if is_shed(&resp) {
                tally.shed += 1;
            } else if is_edge_limited(&resp) {
                tally.rate_limited += 1;
            } else {
                tally.handled += 1;
                tally.latencies_us.push(started.elapsed().as_micros() as u64);
            }
        }
        Err(_) => tally.resets += 1,
    }
}

/// Overload blast: `threads` clients hammering one-shot connections as
/// fast as they can. Peak concurrency exceeds workers + queue depth, so
/// the bounded admission path *must* shed.
fn blast(addr: std::net::SocketAddr, threads: usize, requests_each: u64) -> LoadTally {
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let mut tally = LoadTally::default();
                for _ in 0..requests_each {
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
/// contended (and occasionally shedding) for the whole attack phase.
fn background_load(
    addr: std::net::SocketAddr,
    threads: usize,
    stop: Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<LoadTally>> {
    (0..threads)
        .map(|_| {
            let stop = Arc::clone(&stop);
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

fn percentile_us(latencies: &mut [u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    let rank = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len());
    latencies[rank - 1]
}

fn vm_rss_mb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb / 1024)
        .unwrap_or(0)
}

struct Baseline {
    table4: EvalPoint,
    guessed: Vec<hs_profiler::graph::UserId>,
}

/// Fault-free reference run (in-process, no chaos): what the attack
/// *should* find, regardless of how hostile the soak gets.
fn baseline(cfg: &ScenarioConfig) -> Baseline {
    let mut lab = Lab::facebook(cfg);
    let run = full_attack(&mut lab, false);
    let truth = lab.ground_truth();
    let t = run.config.school_size_estimate as usize;
    let guessed = run.enhanced.guessed_students(t);
    let table4 = evaluate(t, &guessed, |u| run.enhanced.inferred_year(u, &run.config), &truth);
    Baseline { table4, guessed }
}

struct SeedReport {
    seed: u64,
    completed: bool,
    error: Option<String>,
    table4: EvalPoint,
    total_requests: u64,
    retries: u64,
    sheds_crawler: u64,
    shed_server: u64,
    rate_limited_server: u64,
    chaos_faults: u64,
    chaos_delivered: u64,
    chaos_aborted_before: u64,
    post_redeliveries: u64,
    auth_retries: u64,
    ledger_gap: u64,
    widen_factor: u64,
    blast_p99_ms: f64,
    attack_bg_p99_ms: f64,
    drain_wall_ms: u64,
    drained_connections: u64,
    drain_rejects: u64,
    rss_mb: u64,
    violations: Vec<String>,
}

#[allow(clippy::too_many_lines)]
fn soak_seed(cfg: &ScenarioConfig, seed: u64, base: &Baseline, smoke: bool) -> SeedReport {
    let mut violations = Vec::new();
    let mut violate = |msg: String| violations.push(msg);

    let mut lab = Lab::facebook_chaotic(cfg, FaultPlan::chaos());
    let addr = lab.serve_hardened(hardened_config()).expect("bind soak server");

    // ---- phase 1: overload blast -------------------------------------
    // 12 concurrent one-shot clients against 6 workers + queue of 2:
    // bounded admission must shed, and what it admits must stay fast.
    let (threads, each) = if smoke { (10, 50) } else { (12, 150) };
    let mut blast_tally = blast(addr, threads, each);
    let blast_p99_us = percentile_us(&mut blast_tally.latencies_us, 0.99);
    if blast_tally.shed == 0 {
        violate(format!(
            "seed {seed}: overload blast produced no shed 503s \
             ({} sent, {} handled, {} rate-limited)",
            blast_tally.sent, blast_tally.handled, blast_tally.rate_limited
        ));
    }
    if blast_p99_us / 1_000 > ADMITTED_P99_BOUND_MS {
        violate(format!(
            "seed {seed}: blast-phase admitted p99 {}ms exceeds {}ms",
            blast_p99_us / 1_000,
            ADMITTED_P99_BOUND_MS
        ));
    }

    // ---- phase 2: the attack under combined hostility ----------------
    let stop = Arc::new(AtomicBool::new(false));
    let bg_threads = background_load(addr, 2, Arc::clone(&stop));

    let plan = ChaosPlan::chaos().with_seed(seed ^ 0xC4A0_2013);
    let Attacker { mut crawler, retry_stats, chaos_stats: chaos } =
        lab.crawler(2, "soak").seed(seed).chaos(&plan).tcp(true).build();
    let config = lab.attack_config();
    let t = config.school_size_estimate as usize;
    let outcome = (|| {
        let discovery = run_basic(&mut crawler, &config)?;
        let enhanced = run_enhanced(
            &mut crawler,
            &discovery,
            &EnhanceOptions {
                t,
                filtering: true,
                enhance: true,
                school_city: lab.scenario.home_city,
            },
        )?;
        Ok::<_, hs_profiler::crawler::CrawlError>(enhanced)
    })();

    stop.store(true, Ordering::Relaxed);
    let mut attack_bg = LoadTally::default();
    for h in bg_threads {
        attack_bg.absorb(h.join().expect("background load thread"));
    }
    let attack_bg_p99_us = percentile_us(&mut attack_bg.latencies_us, 0.99);
    if attack_bg_p99_us / 1_000 > ADMITTED_P99_BOUND_MS {
        violate(format!(
            "seed {seed}: attack-phase admitted p99 {}ms exceeds {}ms",
            attack_bg_p99_us / 1_000,
            ADMITTED_P99_BOUND_MS
        ));
    }

    // ---- phase 3: audits ---------------------------------------------
    let truth = lab.ground_truth();
    let (completed, error, table4) = match &outcome {
        Ok(enhanced) => {
            let guessed = enhanced.guessed_students(t);
            let table4 = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
            if guessed != base.guessed || table4 != base.table4 {
                violate(format!(
                    "seed {seed}: Table 4 diverged from the fault-free run \
                     (found {} vs {}, correct-year {} vs {})",
                    table4.found, base.table4.found, table4.correct_year, base.table4.correct_year
                ));
            }
            (true, None, table4)
        }
        Err(e) => {
            violate(format!("seed {seed}: attack died: {e}"));
            let empty = EvalPoint { t, guessed: 0, found: 0, correct_year: 0, false_positives: 0 };
            (false, Some(e.to_string()), empty)
        }
    };

    let snap = lab.obs.snapshot();
    let effort = crawler.effort();

    // Effort buckets ≡ the crawler's own observability counters.
    let fetch = |e: &str| snap.counter(&format!("crawler_fetch_total{{endpoint=\"{e}\"}}"));
    let pairs = [
        ("auth", effort.auth_requests),
        ("find-friends", effort.seed_requests),
        ("profile", effort.profile_requests),
        ("message", effort.message_requests),
        ("retry", effort.retry_requests),
    ];
    for (endpoint, bucket) in pairs {
        if fetch(endpoint) != bucket {
            violate(format!(
                "seed {seed}: Effort/metrics mismatch for {endpoint}: {bucket} vs {}",
                fetch(endpoint)
            ));
        }
    }
    if fetch("friends") + fetch("circles") != effort.friend_list_requests {
        violate(format!("seed {seed}: Effort/metrics mismatch for friend lists"));
    }

    // Crawler attempts ≡ chaos ledger.
    let attempts = effort.total() + effort.auth_requests + effort.message_requests;
    if attempts != chaos.delivered() + chaos.aborted_before() {
        violate(format!(
            "seed {seed}: attempts ledger broken: {attempts} attempts vs {} delivered + {} aborted",
            chaos.delivered(),
            chaos.aborted_before()
        ));
    }

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
    if server_requests != route_total + server_rate_limited {
        violate(format!(
            "seed {seed}: server ledger broken: {server_requests} answered vs \
             {route_total} routed + {server_rate_limited} rate-limited"
        ));
    }
    if snap.counter("http_server_decode_errors_total") != 0 {
        violate(format!("seed {seed}: server saw decode errors from well-formed clients"));
    }

    // The money audit: platform served-request count ≡ what the chaos
    // transport says it delivered minus what the edge refused. The
    // background load accounts for itself; the remainder is the crawler.
    let bg_handled = blast_tally.handled + attack_bg.handled;
    let crawler_handled = route_total.saturating_sub(bg_handled);
    let expected = chaos.delivered().saturating_sub(chaos.refused());
    let ledger_gap = expected.saturating_sub(crawler_handled);
    if crawler_handled > expected || ledger_gap > LEDGER_SLACK {
        violate(format!(
            "seed {seed}: platform audit broken: {crawler_handled} served vs \
             {} delivered − {} refused (gap {ledger_gap}, slack {LEDGER_SLACK})",
            chaos.delivered(),
            chaos.refused()
        ));
    }

    // Zero double-sent POSTs: every redelivered POST fingerprint must be
    // an intentional application-level auth retry.
    if chaos.post_redeliveries() > crawler.auth_retries() {
        violate(format!(
            "seed {seed}: {} POST redeliveries exceed {} intentional auth retries — \
             a transport layer silently replayed a POST",
            chaos.post_redeliveries(),
            crawler.auth_retries()
        ));
    }

    let shed_server = snap.counter("http_server_shed_total{reason=\"queue_full\"}")
        + snap.counter("http_server_shed_total{reason=\"max_connections\"}");

    // ---- phase 4: graceful drain -------------------------------------
    let drain_started = Instant::now();
    lab.server().expect("server running").begin_drain();
    // A newcomer during drain is refused politely (503 or a clean
    // close), never left hanging.
    let mut probe = Client::new(addr);
    match probe.exchange(Request::get("/profile/1")) {
        Ok(resp) if resp.status.code() == 503 => {}
        Ok(resp) => {
            violate(format!("seed {seed}: drain admitted new work (status {})", resp.status.code()))
        }
        Err(_) => {} // listener already closed: refused, not hung
    }
    lab.stop_serving();
    let drain_wall_ms = drain_started.elapsed().as_millis() as u64;
    let drain_budget = hardened_config().drain_deadline + Duration::from_secs(3);
    if drain_wall_ms > drain_budget.as_millis() as u64 {
        violate(format!(
            "seed {seed}: drain took {drain_wall_ms}ms (budget {}ms)",
            drain_budget.as_millis()
        ));
    }
    let final_snap = lab.obs.snapshot();

    SeedReport {
        seed,
        completed,
        error,
        table4,
        total_requests: effort.total(),
        retries: effort.retry_requests,
        sheds_crawler: retry_stats.sheds(),
        shed_server,
        rate_limited_server: server_rate_limited,
        chaos_faults: chaos.total_faults(),
        chaos_delivered: chaos.delivered(),
        chaos_aborted_before: chaos.aborted_before(),
        post_redeliveries: chaos.post_redeliveries(),
        auth_retries: crawler.auth_retries(),
        ledger_gap,
        widen_factor: crawler.politeness_widen_factor(),
        blast_p99_ms: blast_p99_us as f64 / 1_000.0,
        attack_bg_p99_ms: attack_bg_p99_us as f64 / 1_000.0,
        drain_wall_ms,
        drained_connections: final_snap.counter("http_server_drained_total"),
        drain_rejects: final_snap.counter("http_server_shutdown_rejects_total"),
        rss_mb: vm_rss_mb(),
        violations,
    }
}

/// One headline row per seed, in the `BENCH_soak.json` schema.
fn bench_rows(rows: &[SeedReport], scenario: &str) -> Vec<serde_json::Value> {
    rows.iter()
        .map(|row| {
            serde_json::json!({
                "bench": "soak",
                "scenario": scenario,
                "seed": row.seed,
                "completed": row.completed,
                "error": row.error,
                "found": row.table4.found as u64,
                "correct_year": row.table4.correct_year as u64,
                "total_requests": row.total_requests,
                "retries": row.retries,
                "sheds_absorbed_by_crawler": row.sheds_crawler,
                "server_sheds": row.shed_server,
                "server_rate_limited": row.rate_limited_server,
                "chaos_faults": row.chaos_faults,
                "chaos_delivered": row.chaos_delivered,
                "chaos_aborted_before": row.chaos_aborted_before,
                "post_redeliveries": row.post_redeliveries,
                "auth_retries": row.auth_retries,
                "ledger_gap": row.ledger_gap,
                "politeness_widen_factor": row.widen_factor,
                "blast_p99_ms": row.blast_p99_ms,
                "attack_bg_p99_ms": row.attack_bg_p99_ms,
                "drain_wall_ms": row.drain_wall_ms,
                "drained_connections": row.drained_connections,
                "drain_rejects": row.drain_rejects,
                "rss_mb": row.rss_mb,
                "violations": row.violations.len() as u64,
            })
        })
        .collect()
}

/// Append rows to `<workspace>/BENCH_soak.json`, mirroring the other
/// BENCH files (a JSON array of run objects).
fn append_bench(entries: Vec<serde_json::Value>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_soak.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    let added = entries.len();
    if let Some(arr) = runs.as_array_mut() {
        arr.extend(entries);
    }
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!("[soak] appended {added} rows to BENCH_soak.json");
        }
    }
}

fn main() {
    let panics = Arc::new(AtomicU64::new(0));
    {
        let panics = Arc::clone(&panics);
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            panics.fetch_add(1, Ordering::SeqCst);
            previous(info);
        }));
    }

    let seeds: u64 = std::env::var("SOAK_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(8);
    let scenario = std::env::var("SOAK_SCENARIO").unwrap_or_else(|_| "hs1".to_string());
    let (cfg, smoke) = match scenario.as_str() {
        "tiny" => (ScenarioConfig::tiny(), true),
        _ => (ScenarioConfig::hs1(), false),
    };

    println!("soak: {scenario} attack, {seeds} seeds, overload + faults + transport chaos");
    let rss_start = vm_rss_mb();
    let base = baseline(&cfg);
    println!(
        "baseline (fault-free): found {} / correct-year {} of {} guessed",
        base.table4.found, base.table4.correct_year, base.table4.guessed
    );

    println!(
        "{:>6}  {:>4}  {:>5}  {:>8}  {:>7}  {:>6}  {:>6}  {:>6}  {:>5}  {:>8}  {:>7}",
        "seed",
        "ok",
        "found",
        "requests",
        "retries",
        "sheds",
        "chaos",
        "redlvr",
        "gap",
        "p99(ms)",
        "drain",
    );
    let mut rows: Vec<SeedReport> = Vec::new();
    let mut all_violations: Vec<String> = Vec::new();
    for i in 0..seeds {
        let seed = BASE_SEED.wrapping_add(i.wrapping_mul(0x9e37_79b9));
        let report =
            std::panic::catch_unwind(AssertUnwindSafe(|| soak_seed(&cfg, seed, &base, smoke)));
        match report {
            Ok(row) => {
                println!(
                    "{:>6x}  {:>4}  {:>5}  {:>8}  {:>7}  {:>6}  {:>6}  {:>6}  {:>5}  {:>8.1}  {:>6}ms",
                    row.seed & 0xff_ffff,
                    if row.completed { "yes" } else { "DIED" },
                    row.table4.found,
                    row.total_requests,
                    row.retries,
                    row.shed_server,
                    row.chaos_faults,
                    row.post_redeliveries,
                    row.ledger_gap,
                    row.attack_bg_p99_ms,
                    row.drain_wall_ms,
                );
                all_violations.extend(row.violations.iter().cloned());
                rows.push(row);
            }
            Err(_) => {
                all_violations.push(format!("seed {seed:#x}: soak panicked"));
            }
        }
    }

    let rss_end = vm_rss_mb();
    if rss_end.saturating_sub(rss_start) > RSS_GROWTH_BOUND_MB {
        all_violations.push(format!(
            "memory growth {}MB exceeds {}MB bound",
            rss_end.saturating_sub(rss_start),
            RSS_GROWTH_BOUND_MB
        ));
    }
    let panic_count = panics.load(Ordering::SeqCst);
    if panic_count > 0 {
        all_violations.push(format!("{panic_count} panic(s) observed during the soak"));
    }
    let total_sheds: u64 = rows.iter().map(|r| r.shed_server).sum();
    if !rows.is_empty() && total_sheds == 0 {
        all_violations.push("no server-side sheds across the whole sweep".to_string());
    }

    // Only a full (HS1) sweep extends the history; a smoke run prints
    // its rows.
    let entries = bench_rows(&rows, &scenario);
    if smoke {
        for entry in &entries {
            println!("{}", serde_json::to_string(entry).expect("row serializes"));
        }
    } else {
        append_bench(entries);
    }
    println!(
        "sweep: {} seeds, {} server sheds, {} chaos faults, rss {}MB -> {}MB",
        rows.len(),
        total_sheds,
        rows.iter().map(|r| r.chaos_faults).sum::<u64>(),
        rss_start,
        rss_end,
    );

    if !all_violations.is_empty() {
        eprintln!("SOAK VIOLATIONS:");
        for v in &all_violations {
            eprintln!("  - {v}");
        }
        std::process::exit(1);
    }
    println!("soak clean: every seed survived with identical findings and closed ledgers.");
}
