//! End-to-end tests for the five-way 429/503 refusal-provenance
//! taxonomy over real loopback TCP: each refusal source — the server's
//! edge token bucket, the chaos fault engine, the sybil detector's
//! throttle, connection-level load shedding, and account suspension —
//! emits its own marker header, and the crawler ledgers each one
//! distinctly in `crawler_refusals_total{source=…}`. On top of the
//! ledgers, the trace-forensics audit must close: every refusal the
//! wire carried is explained by exactly one traced cause.

use hs_profiler::experiments::runner::{full_attack_with, Lab};
use hs_profiler::experiments::trace_audit::audit_trace;
use hs_profiler::graph::UserId;
use hs_profiler::http::{ChaosPlan, RateLimit, ServerConfig};
use hs_profiler::platform::{DefenseConfig, DetectorStrength, FaultPlan, PlatformConfig};
use hs_profiler::synth::ScenarioConfig;
use std::net::TcpStream;
use std::time::Duration;

/// Lane capacity generous enough that no TCP run overflows the ring —
/// a dropped span would void the audit (and should fail the test).
const TRACE_CAP: usize = 1 << 15;

fn ledger(lab: &Lab, source: &str) -> u64 {
    lab.obs.snapshot().counter(&format!("crawler_refusals_total{{source=\"{source}\"}}"))
}

fn assert_only(lab: &Lab, expected: &[&str]) {
    for src in ["edge", "fault", "throttle", "shed", "suspension"] {
        if expected.contains(&src) {
            assert!(ledger(lab, src) > 0, "expected {src} refusals in the ledger");
        } else {
            assert_eq!(ledger(lab, src), 0, "unexpected {src} refusals in the ledger");
        }
    }
}

/// A hot crawl into a tight edge token bucket: every refusal the
/// crawler absorbs is a 429 + `x-edge-limited` from the server's edge,
/// ledgered as `edge` and nothing else.
#[test]
fn edge_limiter_refusals_are_ledgered_as_edge() {
    let mut lab = Lab::facebook(&ScenarioConfig::tiny());
    lab.obs.enable_tracing(TRACE_CAP);
    lab.serve_hardened(ServerConfig {
        rate_limit: Some(RateLimit { burst: 24, per_sec: 400.0 }),
        ..ServerConfig::default()
    })
    .expect("serve");
    let mut crawler = lab.crawler(2, "edge").seed(5).chaos(&ChaosPlan::default()).tcp(true).boxed();
    let config = lab.attack_config();
    let seeds = crawler.collect_seeds(config.school).expect("seeds");
    for &uid in seeds.iter().take(120) {
        let _ = crawler.profile(uid);
    }
    lab.stop_serving();

    assert_only(&lab, &["edge"]);
    let audit = audit_trace(&lab.obs, &crawler.effort());
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
    let edge = audit.refusals.iter().find(|r| r.source == "edge").unwrap();
    // Both ends of the wire agree: what the crawler absorbed is what
    // the edge refused.
    assert!(edge.traced_crawler > 0 && edge.traced_platform > 0);
}

/// Chaos-injected 429s (`x-fault-injected`) and a scripted account
/// suspension (`x-account-suspended`) land in their own ledger rows —
/// never conflated with each other or with edge/throttle refusals.
#[test]
fn fault_and_suspension_refusals_are_ledgered_distinctly() {
    let plan = FaultPlan {
        enabled: true,
        rate_limit_per_mille: 60,
        retry_after_secs: 1,
        // Low enough that account 0 trips it during the profile sweep
        // even on the tiny scenario's short seed list.
        suspend_account_after: vec![12],
        ..FaultPlan::default()
    };
    let mut lab = Lab::facebook_configured(
        &ScenarioConfig::tiny(),
        PlatformConfig { faults: plan, ..PlatformConfig::default() },
    );
    lab.obs.enable_tracing(TRACE_CAP);
    lab.serve().expect("serve");
    let mut crawler =
        lab.crawler(2, "fault").seed(9).chaos(&ChaosPlan::default()).tcp(true).boxed();
    let config = lab.attack_config();
    let seeds = crawler.collect_seeds(config.school).expect("seeds");
    for &uid in seeds.iter().take(120) {
        let _ = crawler.profile(uid);
    }
    lab.stop_serving();

    assert_only(&lab, &["fault", "suspension"]);
    let snap = lab.obs.snapshot();
    assert_eq!(
        ledger(&lab, "suspension"),
        snap.counter("crawler_account_suspensions_total"),
        "suspensions are ledgered once per account"
    );
    let audit = audit_trace(&lab.obs, &crawler.effort());
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
}

/// A Medium-strength sybil detector escalates the fleet to its
/// throttle tier: 429 + `x-throttled` refusals ledgered as `throttle`,
/// with CAPTCHA interstitials billed as time rather than refusals.
#[test]
fn detector_throttle_refusals_are_ledgered_as_throttle() {
    let mut lab = Lab::facebook_defended(
        &ScenarioConfig::tiny(),
        DefenseConfig { strength: DetectorStrength::Medium, ..DefenseConfig::default() },
    );
    lab.obs.enable_tracing(TRACE_CAP);
    lab.serve().expect("serve");
    let crawler = lab.crawler(2, "throttle").seed(13).chaos(&ChaosPlan::default()).tcp(true);
    let run = full_attack_with(&lab, crawler.boxed());
    lab.stop_serving();

    assert_only(&lab, &["throttle"]);
    assert!(run.effort_total.captcha_challenges > 0, "medium tier should issue captchas");
    let audit = audit_trace(&lab.obs, &run.effort_total);
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
}

/// Connection-level load shedding (`503` + `Retry-After` before any
/// handler runs): saturate the admitted-connection cap with idle
/// connections, force the crawler onto a fresh connection, and every
/// response it sees is a shed — ledgered as `shed` and nothing else.
#[test]
fn connection_sheds_are_ledgered_as_shed() {
    let mut lab = Lab::facebook(&ScenarioConfig::tiny());
    lab.obs.enable_tracing(TRACE_CAP);
    let addr = lab
        .serve_hardened(ServerConfig {
            workers: 2,
            queue_depth: 2,
            max_connections: 2,
            // Short enough to reap the crawler's keep-alive connection
            // below; long enough that the saturating connections live
            // through the shed burst.
            idle_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        })
        .expect("serve");
    let mut crawler =
        lab.crawler(1, "shed").seed(17).chaos(&ChaosPlan::default()).tcp(true).boxed();

    // Let the server reap the crawler's idle keep-alive connection, so
    // its next request has to reconnect — and meet a full house.
    std::thread::sleep(Duration::from_millis(450));
    let _hold0 = TcpStream::connect(addr).expect("saturating connection");
    let _hold1 = TcpStream::connect(addr).expect("saturating connection");

    // Every reconnect attempt is shed; the fetch eventually gives up
    // (or squeezes through once the reaper frees a slot — either way
    // the sheds are ledgered).
    let _ = crawler.profile(UserId(1));
    drop((_hold0, _hold1));
    lab.stop_serving();

    assert_only(&lab, &["shed"]);
    let audit = audit_trace(&lab.obs, &crawler.effort());
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
}
