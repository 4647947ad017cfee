//! Crash-only attacker acceptance test: kill the journaled attacker at
//! injected kill points — including mid-frame, leaving a torn tail —
//! restart it against the *same still-running platform* (chaos faults
//! and live churn armed), and require the resumed run to converge
//! bit-identically with an uninterrupted yardstick: same ranked-guess
//! digest, same found count, same effort ledger, same flight-recorder
//! trace (recovery's own lane excluded).
//!
//! The heavier sweeps live in `exp_extra::crash_recovery` and
//! `examples/crash.rs` (real SIGABRT over TCP); this tier-1 test pins
//! the core identity guarantees on the tiny world.

use hs_profiler::crawler::{recover, AdaptiveStrategy, KillPlan};
use hs_profiler::experiments::crash_lab::{
    baseline, baseline_on, crash_lab, killed_and_resumed_on,
};
use hs_profiler::synth::ScenarioConfig;
use std::path::PathBuf;

const SEED: u64 = 0xC4A5;
const WORKERS: usize = 2;
const CHURN: f64 = 1.0;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("hsp-crash-recovery-test");
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir.join(name)
}

/// Journaling must be a pure observer: a journaled run and a bare run
/// of the same seeded attack are indistinguishable in outcome, effort,
/// and trace.
#[test]
fn journaling_changes_nothing() {
    let cfg = ScenarioConfig::tiny();
    let path = test_dir("observer.journal");
    let _ = std::fs::remove_file(&path);
    let bare = baseline(&cfg, SEED, WORKERS, CHURN, None);
    let journaled = baseline(&cfg, SEED, WORKERS, CHURN, Some(&path));
    assert_eq!(bare.digest, journaled.digest, "journaling changed the outcome digest");
    assert_eq!(bare.found, journaled.found, "journaling changed the found count");
    assert_eq!(bare.effort, journaled.effort, "journaling changed the effort ledger");
    assert_eq!(bare.trace_digest, journaled.trace_digest, "journaling changed the trace");
    assert!(journaled.journal_bytes > 0, "journaled baseline wrote no journal");
    assert_eq!(bare.journal_bytes, 0, "bare baseline somehow has a journal");
}

/// Kill the attacker at several points — early, midway, and torn
/// mid-frame — and require every killed-and-resumed run to match the
/// uninterrupted yardstick bit for bit. Each trial runs against its
/// own platform; the yardstick digest is the cross-run invariant.
#[test]
fn killed_and_resumed_is_bit_identical() {
    let cfg = ScenarioConfig::tiny();
    let yardstick = baseline(&cfg, SEED, WORKERS, CHURN, None);

    // How long is the uninterrupted journal? Scales the kill points.
    let probe = test_dir("probe.journal");
    let _ = std::fs::remove_file(&probe);
    let full = baseline(&cfg, SEED, WORKERS, CHURN, Some(&probe));
    assert_eq!(full.digest, yardstick.digest);
    let committed = recover(&probe).expect("probe journal readable").records.len() as u64;
    assert!(committed > 8, "tiny journal too short to place kill points: {committed}");

    let kills = [
        ("early", KillPlan::after(3)),
        ("midway", KillPlan::after(committed / 2)),
        ("torn", KillPlan::torn(committed / 2, 7)),
        ("late", KillPlan::after(committed - 2)),
    ];
    for (label, kill) in kills {
        let lab = crash_lab(&cfg, CHURN);
        let path = test_dir(&format!("kill-{label}.journal"));
        let trial = killed_and_resumed_on(&lab, SEED, WORKERS, None, kill, &path);
        assert_eq!(trial.resumes, 1, "{label}: expected exactly one resume");
        assert!(trial.recovered_records > 0, "{label}: resume recovered an empty journal");
        let o = &trial.outcome;
        assert_eq!(o.digest, yardstick.digest, "{label}: outcome digest drifted after resume");
        assert_eq!(o.found, yardstick.found, "{label}: found count drifted after resume");
        assert_eq!(o.effort, yardstick.effort, "{label}: effort ledger drifted after resume");
        assert_eq!(o.trace_digest, yardstick.trace_digest, "{label}: trace drifted after resume");
    }
}

/// A torn kill must actually tear: recovery sees a shorter committed
/// prefix than the kill point and discards the torn bytes, yet the
/// resumed attack still converges (covered above) — here we pin the
/// recovery accounting itself.
#[test]
fn torn_tail_is_discarded_not_replayed() {
    let cfg = ScenarioConfig::tiny();
    let lab = crash_lab(&cfg, CHURN);
    let path = test_dir("torn-accounting.journal");
    let trial = killed_and_resumed_on(&lab, SEED, WORKERS, None, KillPlan::torn(9, 5), &path);
    assert!(trial.torn_bytes > 0, "torn kill left no torn bytes for recovery to cut");
    assert!(
        trial.recovered_records < 9,
        "recovery claims records at or past the kill point: {}",
        trial.recovered_records
    );
    assert!(trial.recovery_us > 0, "recovery reported zero elapsed time");
}

/// The adaptive attacker journals its pacing too (per-seat jitter draw
/// counters, decoy cadence): killed mid-crawl and resumed, it replays
/// the uninterrupted adaptive run bit for bit — decoys included.
#[test]
fn adaptive_attacker_resumes_bit_identically() {
    let cfg = ScenarioConfig::tiny();
    let adaptive = Some(AdaptiveStrategy::seeded(SEED));
    let yardstick = baseline_on(&crash_lab(&cfg, CHURN), SEED, WORKERS, adaptive, None);
    assert!(yardstick.effort.decoy_requests > 0, "adaptive run issued no decoys");
    for (label, kill) in [("clean", KillPlan::after(40)), ("torn", KillPlan::torn(60, 7))] {
        let lab = crash_lab(&cfg, CHURN);
        let path = test_dir(&format!("adaptive-{label}.journal"));
        let trial = killed_and_resumed_on(&lab, SEED, WORKERS, adaptive, kill, &path);
        assert_eq!(trial.resumes, 1, "{label}: expected exactly one resume");
        let o = &trial.outcome;
        assert_eq!(o.digest, yardstick.digest, "{label}: outcome digest drifted after resume");
        assert_eq!(o.effort, yardstick.effort, "{label}: effort ledger drifted after resume");
        assert_eq!(o.trace_digest, yardstick.trace_digest, "{label}: trace drifted after resume");
    }
}
