//! Live world: run the attack against a platform that mutates
//! underneath it — signups, friendings/defriendings, privacy flips,
//! deactivations, graduation rollover — sweep churn intensity against
//! crawl pacing, gate the freshness frontier, and append the rows to
//! `BENCH_live.json` at the workspace root.
//!
//! ```sh
//! cargo run --release --example live_world          # or scripts/live.sh
//! LIVE_SCENARIO=tiny cargo run --release --example live_world   # CI smoke
//! ```
//!
//! Gates (the run panics if any fails):
//! - Churn-rate zero is a strict no-op: the live-armed platform serves
//!   the frozen baseline byte-for-byte — same effort ledger, same
//!   Table-4 numbers, same trace digest, same virtual wall-clock.
//! - Every cell's trace audit closes: mutation events, stale re-fetch
//!   and tombstone annotations all reconcile against their ledgers.
//! - Applied-mutation counts are monotone in churn factor per pacing,
//!   and the hottest cell actually mutated (non-vacuity).
//! - The hottest cell reproduces exactly from the same seed.
//! - Chaos + Medium detector + mutations simultaneously replay
//!   bit-identically at 1 and 8 scheduler workers (request-carried
//!   virtual time makes the schedule worker-count invariant).

use hs_profiler::crawler::{Effort, Politeness};
use hs_profiler::experiments::runner::{full_attack_with, AttackRun, Lab};
use hs_profiler::experiments::trace_audit::audit_trace;
use hs_profiler::platform::{DefenseConfig, DetectorStrength, FaultPlan, PlatformConfig};
use hs_profiler::synth::ScenarioConfig;

const SEED: u64 = 0x11FE_2013;
const FACTORS: [f64; 4] = [0.0, 1.0, 4.0, 16.0];
const PACES: [(&str, u64); 2] = [("paper", 1_500), ("slow", 6_000)];
/// Lossless flight-recorder capacity for a full HS1 crawl; any drop
/// voids the digest gates, so size generously.
const TRACE_CAP: usize = 1 << 18;

#[derive(Clone, PartialEq, Debug)]
struct Cell {
    factor: f64,
    pace: &'static str,
    pace_ms: u64,
    found: usize,
    correct_year: usize,
    false_positives: usize,
    mutations_applied: usize,
    mutations_scheduled: usize,
    state_digest: u64,
    trace_digest: String,
    effort: Effort,
    virtual_minutes: f64,
}

fn eval(lab: &Lab, run: &AttackRun) -> (usize, usize, usize) {
    let truth = lab.ground_truth();
    let t = run.config.school_size_estimate as usize;
    let point = hs_profiler::core::evaluate(
        t,
        &run.enhanced.guessed_students(t),
        |u| run.enhanced.inferred_year(u, &run.config),
        &truth,
    );
    (point.found, point.correct_year, point.false_positives)
}

/// One attack against `lab` at the given pacing; panics unless the
/// trace audit closes over everything the crawl and the world did.
fn measure(lab: &Lab, factor: f64, pace: &'static str, pace_ms: u64) -> Cell {
    lab.obs.enable_tracing(TRACE_CAP);
    let politeness = Politeness { sleep_ms_between_requests: pace_ms, ..Politeness::default() };
    let accounts = lab.paper_account_count();
    let access = lab.crawler(accounts, "live").seed(SEED).politeness(politeness).boxed();
    let run = full_attack_with(lab, access);
    assert_eq!(lab.obs.tracer().dropped(), 0, "trace ring overflowed; raise TRACE_CAP");
    let audit = audit_trace(&lab.obs, &run.effort_total);
    assert!(
        audit.closed(),
        "[x{factor} {pace}] audit must close, unexplained: {:#?}",
        audit.unexplained
    );
    let (found, correct_year, false_positives) = eval(lab, &run);
    Cell {
        factor,
        pace,
        pace_ms,
        found,
        correct_year,
        false_positives,
        mutations_applied: lab.platform.mutations.applied_count(),
        mutations_scheduled: lab.platform.mutations.event_count(),
        state_digest: lab.platform.mutations.state_digest(),
        trace_digest: audit.digest,
        effort: run.effort_total,
        virtual_minutes: run.access.virtual_elapsed_ms() as f64 / 60_000.0,
    }
}

fn live_cell(cfg: &ScenarioConfig, factor: f64, pace: &'static str, pace_ms: u64) -> Cell {
    let lab = Lab::facebook_live(cfg, factor);
    measure(&lab, factor, pace, pace_ms)
}

/// The frozen reference (no mutation engine in the config at all) that
/// the churn-zero cells must reproduce byte-for-byte.
fn frozen_baseline(cfg: &ScenarioConfig, pace: &'static str, pace_ms: u64) -> Cell {
    let lab = Lab::facebook(cfg);
    measure(&lab, 0.0, pace, pace_ms)
}

fn gate_frontier(scenario: &str, cells: &[Cell], baselines: &[Cell]) {
    for base in baselines {
        let zero =
            cells.iter().find(|c| c.factor == 0.0 && c.pace == base.pace).expect("zero-rate cell");
        assert_eq!(
            zero.trace_digest, base.trace_digest,
            "[{scenario}/{}] zero churn must replay the frozen trace bit-for-bit",
            base.pace
        );
        assert_eq!(
            zero.effort, base.effort,
            "[{scenario}/{}] zero churn must leave the effort ledger unchanged",
            base.pace
        );
        assert_eq!(
            (zero.found, zero.correct_year, zero.false_positives),
            (base.found, base.correct_year, base.false_positives),
            "[{scenario}/{}] zero churn must reproduce the frozen Table 4 exactly",
            base.pace
        );
        assert_eq!(
            zero.virtual_minutes, base.virtual_minutes,
            "[{scenario}/{}] zero churn must leave the virtual wall-clock unchanged",
            base.pace
        );
        assert_eq!(zero.mutations_applied, 0);
    }
    for (pace, _) in PACES {
        let applied: Vec<usize> = FACTORS
            .iter()
            .map(|&f| {
                cells
                    .iter()
                    .find(|c| c.factor == f && c.pace == pace)
                    .expect("sweep cell")
                    .mutations_applied
            })
            .collect();
        assert!(
            applied.windows(2).all(|w| w[0] <= w[1]),
            "[{scenario}/{pace}] applied mutations must be monotone in churn, got {applied:?}"
        );
        assert!(
            *applied.last().unwrap() > 0,
            "[{scenario}/{pace}] the hottest cell never mutated — the sweep is vacuous"
        );
    }
    let churn_annotations: u64 = cells
        .iter()
        .filter(|c| c.factor > 0.0)
        .map(|c| c.effort.stale_refetch_requests + c.effort.tombstones)
        .sum();
    assert!(
        churn_annotations > 0,
        "[{scenario}] churn never produced a stale re-fetch or tombstone — \
         the staleness protocol was never exercised"
    );
}

/// The worst-case determinism gate: chaos on the wire, the Medium
/// detector escalating, the world churning at x16 — and the parallel
/// scheduler must still produce bit-identical mutation state, effort
/// and trace digests at 1 and 8 workers. Always runs on the tiny world
/// (the property is scenario-independent; the sweep above covers scale).
fn parallel_replay_fingerprint(workers: usize) -> (String, Effort, u64, u64) {
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
    assert_eq!(lab.obs.tracer().dropped(), 0, "trace ring overflowed; raise TRACE_CAP");
    assert!(lab.platform.mutations.applied_count() > 0, "replay gate must see mutations");
    (
        run.access.checkpoint().to_json().unwrap(),
        run.effort_total,
        lab.platform.mutations.state_digest(),
        lab.obs.tracer().digest(),
    )
}

/// Append the sweep to `<workspace>/BENCH_live.json` (a JSON array of
/// run objects; created on first use), mirroring `BENCH_defense.json`.
fn append_headline(scenario: &str, cells: &[Cell]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_live.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    for cell in cells {
        let entry = serde_json::json!({
            "bench": format!("live_world_{scenario}"),
            "churn_factor": cell.factor,
            "pace": cell.pace,
            "pace_ms": cell.pace_ms,
            "found": cell.found as u64,
            "correct_year": cell.correct_year as u64,
            "false_positives": cell.false_positives as u64,
            "mutations_applied": cell.mutations_applied as u64,
            "mutations_scheduled": cell.mutations_scheduled as u64,
            "mutation_state_digest": format!("{:016x}", cell.state_digest),
            "trace_digest": cell.trace_digest,
            "total_requests": cell.effort.total(),
            "stale_refetches": cell.effort.stale_refetch_requests,
            "tombstones": cell.effort.tombstones,
            "retries": cell.effort.retry_requests,
            "virtual_minutes": cell.virtual_minutes,
        });
        if let Some(arr) = runs.as_array_mut() {
            arr.push(entry);
        }
    }
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!("[live-world] appended {} rows to BENCH_live.json", cells.len());
        }
    }
}

fn main() {
    let scenario = std::env::var("LIVE_SCENARIO").unwrap_or_else(|_| "hs1".to_string());
    let cfg = match scenario.as_str() {
        "hs1" => ScenarioConfig::hs1(),
        "tiny" => ScenarioConfig::tiny(),
        other => panic!("unknown LIVE_SCENARIO {other:?} (use hs1 or tiny)"),
    };
    println!("live world: {scenario} attack vs churn rate vs crawl pacing (seed {SEED:#x})");
    println!(
        "{:>6}  {:>6}  {:>9}  {:>9}  {:>10}  {:>10}  {:>8}  {:>5}  {:>8}",
        "churn",
        "pace",
        "scheduled",
        "applied",
        "tombstones",
        "stale-ref",
        "requests",
        "found",
        "virt-min"
    );
    let mut baselines = Vec::new();
    let mut cells = Vec::new();
    for (pace, pace_ms) in PACES {
        baselines.push(frozen_baseline(&cfg, pace, pace_ms));
        for factor in FACTORS {
            let cell = live_cell(&cfg, factor, pace, pace_ms);
            println!(
                "{:>6}  {:>6}  {:>9}  {:>9}  {:>10}  {:>10}  {:>8}  {:>5}  {:>8.1}",
                format!("x{factor:.0}"),
                cell.pace,
                cell.mutations_scheduled,
                cell.mutations_applied,
                cell.effort.tombstones,
                cell.effort.stale_refetch_requests,
                cell.effort.total(),
                cell.found,
                cell.virtual_minutes
            );
            cells.push(cell);
        }
    }
    gate_frontier(&scenario, &cells, &baselines);
    // Determinism gate: the hottest cell must reproduce exactly.
    let (pace, pace_ms) = PACES[PACES.len() - 1];
    let replay = live_cell(&cfg, *FACTORS.last().unwrap(), pace, pace_ms);
    let first = cells
        .iter()
        .find(|c| c.factor == *FACTORS.last().unwrap() && c.pace == pace)
        .expect("hottest cell");
    assert_eq!(*first, replay, "[{scenario}] live-world rows must be deterministic per seed");
    // Worker-count gate: chaos + detector + churn, 1 vs 8 workers.
    let one = parallel_replay_fingerprint(1);
    let eight = parallel_replay_fingerprint(8);
    assert_eq!(
        one, eight,
        "chaos+detector+mutations must replay bit-identically across worker counts"
    );
    println!(
        "[live-world] gates passed: zero-rate==frozen, closed audits, monotone+non-vacuous \
         mutations, deterministic replay, 1==8 workers under chaos+detector+churn"
    );
    append_headline(&scenario, &cells);
}
