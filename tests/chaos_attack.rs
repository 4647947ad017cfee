//! The tentpole's acceptance test: the full HS1 attack against a
//! hostile platform (`FaultPlan::chaos()`: sporadic 429s with
//! Retry-After, transient 5xxs, simulated latency, mid-body resets,
//! truncated pages, session expiries, and a scripted mid-crawl
//! suspension of the first account).
//!
//! The resilient crawler must *survive* all of it — retry, re-login,
//! re-fetch, fail over to recruited accounts — and because every fault
//! is drawn from a seeded RNG against a virtual clock, two runs with
//! the same seed must be bit-identical, and the attack's findings must
//! match the fault-free run.

use hs_profiler::core::{evaluate, Completeness, EvalPoint};
use hs_profiler::experiments::runner::{full_attack, full_attack_with, AttackRun, Lab};
use hs_profiler::platform::FaultPlan;
use hs_profiler::synth::ScenarioConfig;

const SEED: u64 = 0x9d5f_2013;

struct ChaosOutcome {
    run: AttackRun,
    table4: EvalPoint,
    completeness: Completeness,
    /// (suspensions, recruits, retries-metric, per-endpoint fetches).
    suspensions: u64,
    recruited: u64,
    retry_metric: u64,
    fetch: Vec<(String, u64)>,
    virtual_ms: u64,
}

fn chaos_attack() -> ChaosOutcome {
    let lab = Lab::facebook_chaotic(&ScenarioConfig::hs1(), FaultPlan::chaos());
    let access = lab.crawler(2, "atk").seed(SEED).boxed();
    let run = full_attack_with(&lab, access);
    let truth = lab.ground_truth();
    let t = run.config.school_size_estimate as usize;
    let table4 = evaluate(
        t,
        &run.enhanced.guessed_students(t),
        |u| run.enhanced.inferred_year(u, &run.config),
        &truth,
    );
    let completeness = Completeness::from_access(run.access.as_ref());
    let virtual_ms = run.access.virtual_elapsed_ms();
    let snap = lab.obs.snapshot();
    let fetch = ["auth", "find-friends", "profile", "friends", "circles", "message", "retry"]
        .iter()
        .map(|e| (e.to_string(), snap.counter(&format!("crawler_fetch_total{{endpoint=\"{e}\"}}"))))
        .collect();
    ChaosOutcome {
        run,
        table4,
        completeness,
        suspensions: snap.counter("crawler_account_suspensions_total"),
        recruited: snap.counter("crawler_accounts_recruited_total"),
        retry_metric: snap.counter("crawler_fetch_total{endpoint=\"retry\"}"),
        fetch,
        virtual_ms,
    }
}

#[test]
fn hs1_attack_survives_chaos_deterministically() {
    // Fault-free baseline for the Table 4 comparison.
    let mut clean_lab = Lab::facebook(&ScenarioConfig::hs1());
    let clean = full_attack(&mut clean_lab, false);
    let clean_truth = clean_lab.ground_truth();
    let t = clean.config.school_size_estimate as usize;
    let clean_t4 = evaluate(
        t,
        &clean.enhanced.guessed_students(t),
        |u| clean.enhanced.inferred_year(u, &clean.config),
        &clean_truth,
    );

    let a = chaos_attack();
    let b = chaos_attack();

    // --- determinism: same seed ⇒ bit-identical runs ---------------------
    assert_eq!(a.run.discovery.seeds, b.run.discovery.seeds);
    assert_eq!(a.run.discovery.claiming, b.run.discovery.claiming);
    let core_a: Vec<_> = a.run.discovery.core.iter().map(|c| (c.id, c.grad_year)).collect();
    let core_b: Vec<_> = b.run.discovery.core.iter().map(|c| (c.id, c.grad_year)).collect();
    assert_eq!(core_a, core_b);
    assert_eq!(a.run.enhanced.guessed_students(t), b.run.enhanced.guessed_students(t));
    assert_eq!(a.run.effort_total, b.run.effort_total, "identical request-for-request cost");
    assert_eq!(a.table4, b.table4);
    assert_eq!(a.completeness, b.completeness);
    assert_eq!(
        (a.suspensions, a.recruited, a.retry_metric, &a.fetch, a.virtual_ms),
        (b.suspensions, b.recruited, b.retry_metric, &b.fetch, b.virtual_ms),
        "chaos telemetry must replay exactly"
    );

    // --- the chaos actually happened, and the crawler survived it --------
    assert!(
        a.run.effort_total.retry_requests > 0,
        "the chaos plan should have forced transport retries"
    );
    assert_eq!(a.suspensions, 1, "the scripted suspension fired");
    assert!(a.recruited >= 1, "suspension triggered the 2→4 escalation");
    assert!(a.virtual_ms > 0, "latency/backoff advanced the virtual clock");

    // --- Effort stays honest under faults: buckets ≡ obs counters --------
    let effort = a.run.effort_total;
    let get = |name: &str| a.fetch.iter().find(|(e, _)| e == name).map(|&(_, n)| n).unwrap_or(0);
    assert_eq!(effort.auth_requests, get("auth"));
    assert_eq!(effort.seed_requests, get("find-friends"));
    assert_eq!(effort.profile_requests, get("profile"));
    assert_eq!(effort.friend_list_requests, get("friends") + get("circles"));
    assert_eq!(effort.message_requests, get("message"));
    assert_eq!(effort.retry_requests, get("retry"));
    assert_eq!(a.retry_metric, effort.retry_requests);

    // --- findings match the fault-free run --------------------------------
    // Seeds and the guessed set are derived from account-independent
    // pages, so surviving the faults must not change *what* was found —
    // only what it cost. (The chaotic run pays more requests.)
    assert_eq!(a.run.discovery.seeds, clean.discovery.seeds);
    assert_eq!(a.table4.guessed, clean_t4.guessed);
    assert_eq!(a.table4.found, clean_t4.found, "Table 4 'found' must survive chaos");
    assert_eq!(a.table4.correct_year, clean_t4.correct_year);
    assert!(
        a.run.effort_total.total() > clean.effort_total.total(),
        "chaos must cost extra requests: {} vs {}",
        a.run.effort_total.total(),
        clean.effort_total.total()
    );
}
