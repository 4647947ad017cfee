//! Acceptance tests for the parallel crawl scheduler's determinism
//! contract: worker count is a pure throughput knob. One worker and
//! eight workers — same accounts, same seed, same chaotic fault plan —
//! must produce bit-identical findings, request-for-request identical
//! effort, identical evaluation output, and identical checkpoints.
//!
//! Plus the effort-accounting audit: on a fault-free platform, the
//! `Effort` buckets aggregated across all account workers must exactly
//! match both the crawler's own fetch telemetry and the *platform-side*
//! served-request counters — nothing double-counted, nothing lost in
//! the fan-out/merge.

use hs_profiler::core::{evaluate, EvalPoint};
use hs_profiler::experiments::runner::{full_attack_with, AttackRun, Lab};
use hs_profiler::experiments::trace_audit::audit_trace;
use hs_profiler::platform::{DefenseConfig, DetectorStrength, FaultPlan, PlatformConfig};
use hs_profiler::synth::ScenarioConfig;

const SEED: u64 = 0x9d5f_2013;
/// Flight-recorder lane capacity ample enough that a tiny chaotic
/// attack never overflows — a dropped span would (rightly) fail the
/// digest comparison.
const TRACE_CAP: usize = 32_768;

fn parallel_attack(workers: usize) -> (Lab, AttackRun) {
    let lab = Lab::facebook_chaotic(&ScenarioConfig::tiny(), FaultPlan::chaos());
    lab.obs.enable_tracing(TRACE_CAP);
    let access = lab.crawler(2, "atk").workers(workers).seed(SEED).boxed();
    let run = full_attack_with(&lab, access);
    (lab, run)
}

fn table4(lab: &Lab, run: &AttackRun) -> EvalPoint {
    let truth = lab.ground_truth();
    let t = run.config.school_size_estimate as usize;
    evaluate(
        t,
        &run.enhanced.guessed_students(t),
        |u| run.enhanced.inferred_year(u, &run.config),
        &truth,
    )
}

#[test]
fn worker_count_never_changes_the_attack() {
    let (lab1, one) = parallel_attack(1);
    let (lab8, eight) = parallel_attack(8);
    let t = one.config.school_size_estimate as usize;

    // Findings are bit-identical.
    assert_eq!(one.discovery.seeds, eight.discovery.seeds);
    assert_eq!(one.discovery.claiming, eight.discovery.claiming);
    let core1: Vec<_> = one.discovery.core.iter().map(|c| (c.id, c.grad_year)).collect();
    let core8: Vec<_> = eight.discovery.core.iter().map(|c| (c.id, c.grad_year)).collect();
    assert_eq!(core1, core8);
    assert_eq!(one.enhanced.guessed_students(t), eight.enhanced.guessed_students(t));

    // Cost is request-for-request identical, not merely similar.
    assert_eq!(one.effort_total, eight.effort_total);

    // Evaluation output (the numbers the tables are built from).
    assert_eq!(table4(&lab1, &one), table4(&lab8, &eight));

    // Checkpoints replay identically: a crawl interrupted on an
    // 8-worker box resumes exactly on a 1-worker box.
    assert_eq!(
        one.access.checkpoint().to_json().unwrap(),
        eight.access.checkpoint().to_json().unwrap()
    );

    // The modeled makespan is the one thing workers MAY change — and
    // only downward: more lanes never cost virtual time.
    assert!(eight.access.virtual_elapsed_ms() <= one.access.virtual_elapsed_ms());

    // And the chaos actually happened — this was not a fault-free walk.
    assert!(one.effort_total.retry_requests > 0, "chaos should force retries");

    // The flight recorder saw the same causal history: span ids are
    // derived, ordinals are per-lane, so the canonical trace digest is
    // bit-identical at any worker count.
    assert!(!lab1.obs.tracer().is_empty(), "chaotic attack must leave a trace");
    assert_eq!(lab1.obs.tracer().dropped(), 0, "digest comparison needs a lossless ring");
    assert_eq!(lab1.obs.tracer().digest(), lab8.obs.tracer().digest());

    // And the forensics pass reconstructs the 8-worker run completely:
    // every retry and refusal the fan-out absorbed has a traced cause.
    let audit = audit_trace(&lab8.obs, &eight.effort_total);
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
}

/// One defended + chaotic parallel attack, reduced to everything that
/// must be invariant across worker counts: the checkpoint, the effort
/// ledger (captchas and throttle retries included), the detector's
/// *own* internal state digest (per-session features, scores, ladder
/// positions), the flight recorder's canonical trace digest, and the
/// Table-4 numbers.
type DefendedFingerprint = (String, hs_profiler::crawler::Effort, u64, u64, EvalPoint);

fn defended_attack(workers: usize, strength: DetectorStrength) -> DefendedFingerprint {
    let lab = Lab::facebook_configured(
        &ScenarioConfig::tiny(),
        PlatformConfig {
            faults: FaultPlan::chaos(),
            defense: DefenseConfig { strength, ..DefenseConfig::default() },
            ..PlatformConfig::default()
        },
    );
    lab.obs.enable_tracing(TRACE_CAP);
    let access = lab.crawler(2, "atk").workers(workers).seed(SEED).boxed();
    let run = full_attack_with(&lab, access);
    let digest = lab.platform.defense.state_digest();
    assert_eq!(lab.obs.tracer().dropped(), 0, "digest comparison needs a lossless ring");
    (
        run.access.checkpoint().to_json().unwrap(),
        run.effort_total,
        digest,
        lab.obs.tracer().digest(),
        table4(&lab, &run),
    )
}

fn defended_reference(strength: DetectorStrength) -> &'static DefendedFingerprint {
    use std::sync::OnceLock;
    static LOW: OnceLock<DefendedFingerprint> = OnceLock::new();
    static MEDIUM: OnceLock<DefendedFingerprint> = OnceLock::new();
    let cell = match strength {
        DetectorStrength::Low => &LOW,
        DetectorStrength::Medium => &MEDIUM,
        _ => panic!("reference cached for Low/Medium only"),
    };
    cell.get_or_init(|| defended_attack(1, strength))
}

proptest::proptest! {
    // Every case is a full (tiny) chaotic crawl; keep the count small.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(4))]

    /// The detector observes, scores and escalates per *session*, in
    /// each session's own request order — so its feature extraction and
    /// verdict stream must be bit-identical at any worker count, even
    /// with `FaultPlan::chaos()` mangling the traffic underneath.
    #[test]
    fn detector_state_is_bit_identical_across_worker_counts(
        workers in 2usize..=8,
        tier in 0usize..=1,
    ) {
        let strength = [DetectorStrength::Low, DetectorStrength::Medium][tier];
        let reference = defended_reference(strength);
        let run = defended_attack(workers, strength);
        proptest::prop_assert_eq!(&run, reference);
    }
}

/// The live-world fingerprint: everything that must be invariant when
/// the platform *mutates underneath* a chaotic, defended, parallel
/// crawl — the checkpoint, the effort ledger (stale re-fetch and
/// tombstone annotations included), the mutation engine's state digest
/// (applied events + per-generation serve tallies), the detector state
/// digest, the trace digest, and the Table-4 numbers.
type LiveFingerprint = (String, hs_profiler::crawler::Effort, u64, u64, u64, EvalPoint);

fn live_attack(workers: usize) -> LiveFingerprint {
    let cfg = ScenarioConfig::tiny();
    let lab = Lab::facebook_configured(
        &cfg,
        PlatformConfig {
            faults: FaultPlan::chaos(),
            defense: DefenseConfig {
                strength: DetectorStrength::Medium,
                ..DefenseConfig::default()
            },
            mutations: Lab::churn_plan(&cfg, 16.0),
            ..PlatformConfig::default()
        },
    );
    lab.obs.enable_tracing(TRACE_CAP);
    let access = lab.crawler(2, "atk").workers(workers).seed(SEED).boxed();
    let run = full_attack_with(&lab, access);
    assert_eq!(lab.obs.tracer().dropped(), 0, "digest comparison needs a lossless ring");
    // Non-vacuity: the world genuinely churned while the crawl ran, and
    // the forensics pass still closes over chaos + detector + mutations.
    assert!(lab.platform.mutations.applied_count() > 0, "live world never mutated mid-crawl");
    let audit = audit_trace(&lab.obs, &run.effort_total);
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
    (
        run.access.checkpoint().to_json().unwrap(),
        run.effort_total,
        lab.platform.mutations.state_digest(),
        lab.platform.defense.state_digest(),
        lab.obs.tracer().digest(),
        table4(&lab, &run),
    )
}

fn live_reference() -> &'static LiveFingerprint {
    use std::sync::OnceLock;
    static REF: OnceLock<LiveFingerprint> = OnceLock::new();
    REF.get_or_init(|| live_attack(1))
}

proptest::proptest! {
    // Each case is a full chaotic live-world crawl; keep the count small.
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3))]

    /// Request-carried virtual time makes the mutation schedule a pure
    /// function of the per-account request streams, so even with the
    /// world churning (x16), chaos mangling the wire and the Medium
    /// detector escalating, every digest is bit-identical at any worker
    /// count.
    #[test]
    fn live_world_attack_is_bit_identical_across_worker_counts(workers in 2usize..=8) {
        let reference = live_reference();
        let run = live_attack(workers);
        proptest::prop_assert_eq!(&run, reference);
    }
}

/// The property above must not hold vacuously: every seat stamps its
/// requests with its own clock, so each session's gaps are its own
/// metronomic 1.5 s politeness sleeps (plus backoff) — fast and regular
/// enough that Medium must actually flag the fleet.
#[test]
fn defended_chaotic_parallel_run_engages_the_detector() {
    let (_, effort, digest, _, _) = defended_reference(DetectorStrength::Medium).clone();
    assert_ne!(digest, 0, "detector saw no sessions");
    assert!(effort.captcha_challenges > 0, "medium tier should be issuing captchas");
    let (off_ckpt, off_effort, off_digest, _, off_eval) = defended_attack(1, DetectorStrength::Off);
    assert_ne!(digest, off_digest, "a defended run must accumulate per-session state");
    // And the defense's costs are visible in the ledger: same attack,
    // same chaos, but the defended run works harder.
    assert!(effort.captcha_virtual_ms > 0);
    assert_eq!(off_effort.captcha_challenges, 0);
    // The attack still lands either way (the detector raises cost, it
    // does not undo the paper's result on these tiers).
    let (_, _, _, _, eval) = defended_reference(DetectorStrength::Medium);
    assert!(eval.found > 0 && off_eval.found > 0);
    assert!(!off_ckpt.is_empty());
}

#[test]
fn parallel_effort_matches_platform_served_requests() {
    let lab = Lab::facebook(&ScenarioConfig::tiny());
    let access = lab.crawler(2, "atk").workers(4).seed(SEED).boxed();
    let run = full_attack_with(&lab, access);
    let snap = lab.obs.snapshot();
    let effort = run.effort_total;
    let fetch = |e: &str| snap.counter(&format!("crawler_fetch_total{{endpoint=\"{e}\"}}"));
    let route = |r: &str| snap.counter(&format!("http_route_requests_total{{route=\"{r}\"}}"));

    // Crawler-side telemetry agrees with the Effort buckets summed
    // across every account worker.
    assert_eq!(effort.auth_requests, fetch("auth"));
    assert_eq!(effort.seed_requests, fetch("find-friends"));
    assert_eq!(effort.profile_requests, fetch("profile"));
    assert_eq!(effort.friend_list_requests, fetch("friends") + fetch("circles"));
    assert_eq!(effort.message_requests, fetch("message"));

    // Fault-free run: no retries, so every fetch the crawler billed is
    // a request the platform served, and vice versa.
    assert_eq!(effort.retry_requests, 0);
    assert_eq!(effort.auth_requests, route("/signup") + route("/login"));
    assert_eq!(effort.seed_requests, route("/find-friends") + route("/graph-search"));
    assert_eq!(effort.profile_requests, route("/profile/:uid"));
    assert_eq!(effort.friend_list_requests, route("/friends/:uid") + route("/circles/:uid"));
    assert_eq!(effort.message_requests, route("/message/:uid"));
    assert!(effort.total() > 0, "the attack did real work");
}
