//! Crash-only attacker acceptance test: kill the journaled attacker at
//! injected kill points — including mid-frame, leaving a torn tail —
//! restart it against the *same still-running platform* (chaos faults
//! and live churn armed), and require the resumed run to converge
//! bit-identically with an uninterrupted yardstick: same ranked-guess
//! digest, same found count, same effort ledger, same flight-recorder
//! trace (recovery's own lane excluded).
//!
//! These tests pin the identity guarantees on the tiny world, and
//! `a_killed_attacker_process_resumes_over_tcp` does it for real: an
//! attacker child process dies by SIGABRT mid-journal-write and its
//! successor resumes over loopback TCP. `experiments crash-recovery`
//! sweeps more kill points and holds the journal's write path to ≤5%
//! of the attack's wall time.

use hs_profiler::crawler::{recover, AdaptiveStrategy, CrawlError, Effort, KillPlan};
use hs_profiler::experiments::crash_lab::{
    attack_over_tcp, baseline, crash_lab, killed_and_resumed, CrashOutcome, KillTrial,
};
use hs_profiler::experiments::Lab;
use hs_profiler::platform::{FaultPlan, PlatformConfig};
use hs_profiler::synth::ScenarioConfig;
use std::path::{Path, PathBuf};

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
    let bare = baseline(&crash_lab(&cfg, CHURN), SEED, WORKERS, None, None);
    let journaled = baseline(&crash_lab(&cfg, CHURN), SEED, WORKERS, None, Some(&path));
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
    let yardstick = baseline(&crash_lab(&cfg, CHURN), SEED, WORKERS, None, None);

    // How long is the uninterrupted journal? Scales the kill points.
    let probe = test_dir("probe.journal");
    let _ = std::fs::remove_file(&probe);
    let full = baseline(&crash_lab(&cfg, CHURN), SEED, WORKERS, None, Some(&probe));
    assert_eq!(full.digest, yardstick.digest);
    let committed = recover(&probe).expect("probe journal readable").records.len() as u64;
    assert!(committed > 8, "tiny journal too short to place kill points: {committed}");

    let kills = [
        ("early", KillPlan::after(3)),
        ("record-40", KillPlan::after(40)),
        ("midway", KillPlan::after(committed / 2)),
        ("torn", KillPlan::torn(committed / 2, 7)),
        ("torn-120", KillPlan::torn(120, 7)),
        ("late", KillPlan::after(committed - 2)),
    ];
    for (label, kill) in kills {
        let lab = crash_lab(&cfg, CHURN);
        let path = test_dir(&format!("kill-{label}.journal"));
        let trial = killed_and_resumed(&lab, SEED, WORKERS, None, kill, &path);
        assert_resumed_identically(label, &trial, &yardstick);
    }
}

/// One resume recovered a non-empty journal and converged on
/// `yardstick`: outcome digest, found count, effort ledger and trace.
fn assert_resumed_identically(label: &str, trial: &KillTrial, yardstick: &CrashOutcome) {
    assert_eq!(trial.resumes, 1, "{label}: expected exactly one resume");
    assert!(trial.recovered_records > 0, "{label}: resume recovered an empty journal");
    let o = &trial.outcome;
    assert_eq!(o.digest, yardstick.digest, "{label}: outcome digest drifted after resume");
    assert_eq!(o.found, yardstick.found, "{label}: found count drifted after resume");
    assert_eq!(o.effort, yardstick.effort, "{label}: effort ledger drifted after resume");
    assert_eq!(o.trace_digest, yardstick.trace_digest, "{label}: trace drifted after resume");
}

/// A fleet that recruits, killed before, inside and after its
/// recruitment waves. Its first seat is suspended after 60 requests
/// and every recruit of the first wave after 20, so the fleet grows
/// 2 → 4 → 8. The resume re-enrolls the recruits the killed run had
/// signed up but not yet committed — the platform answers a signup
/// replaying its attempt seq as it answered the first — and numbers
/// its later recruits where the killed run's numbering stood, so every
/// resumed run replays the yardstick bit for bit.
#[test]
fn a_recruiting_fleet_resumes_bit_identically() {
    let cfg = ScenarioConfig::tiny();
    let lab = || {
        let faults = FaultPlan { suspend_account_after: vec![60, 0, 20, 20], ..FaultPlan::chaos() };
        let mutations = Lab::churn_plan(&cfg, CHURN);
        Lab::facebook_configured(&cfg, PlatformConfig { faults, mutations, ..Default::default() })
    };
    let probe = test_dir("recruits-probe.journal");
    let _ = std::fs::remove_file(&probe);
    let yardstick_lab = lab();
    let yardstick = baseline(&yardstick_lab, SEED, WORKERS, None, Some(&probe));
    let recruited = yardstick_lab.obs.snapshot().counter("crawler_accounts_recruited_total");
    assert_eq!(recruited, 6, "the fleet must recruit 2, then 4 more");
    let committed = recover(&probe).expect("probe journal readable").records.len() as u64;
    assert!(committed > 100, "journal too short for the kill points: {committed}");

    for after in [40, 89, 100, committed - 2] {
        let path = test_dir(&format!("recruits-{after}.journal"));
        let trial = killed_and_resumed(&lab(), SEED, WORKERS, None, KillPlan::after(after), &path);
        assert_resumed_identically(&format!("after({after})"), &trial, &yardstick);
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
    let trial = killed_and_resumed(&lab, SEED, WORKERS, None, KillPlan::torn(9, 5), &path);
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
/// the uninterrupted adaptive run bit for bit — decoys included. Over
/// loopback TCP too: killed and resumed against a served crash lab, it
/// matches the in-process yardstick's outcome and effort.
#[test]
fn adaptive_attacker_resumes_bit_identically() {
    let cfg = ScenarioConfig::tiny();
    let adaptive = Some(AdaptiveStrategy::seeded(SEED));
    let yardstick = baseline(&crash_lab(&cfg, CHURN), SEED, WORKERS, adaptive, None);
    assert!(yardstick.effort.decoy_requests > 0, "adaptive run issued no decoys");
    for (label, kill) in [("clean", KillPlan::after(40)), ("torn", KillPlan::torn(60, 7))] {
        let lab = crash_lab(&cfg, CHURN);
        let path = test_dir(&format!("adaptive-{label}.journal"));
        let trial = killed_and_resumed(&lab, SEED, WORKERS, adaptive, kill, &path);
        assert_resumed_identically(label, &trial, &yardstick);
    }
    for (label, kill) in [("tcp-torn", KillPlan::torn(60, 7)), ("tcp-150", KillPlan::after(150))] {
        let mut lab = crash_lab(&cfg, CHURN);
        let addr = lab.serve().expect("serve the crash lab");
        let path = test_dir(&format!("adaptive-{label}.journal"));
        let _ = std::fs::remove_file(&path);
        let killed = attack_over_tcp(&lab, addr, SEED, WORKERS, adaptive, Some(kill), &path);
        assert!(
            matches!(killed, Err(CrawlError::BadPage("journal kill point"))),
            "{label}: the kill point never fired"
        );
        let trial = attack_over_tcp(&lab, addr, SEED, WORKERS, adaptive, None, &path)
            .unwrap_or_else(|e| panic!("{label}: the resume over TCP failed: {e:?}"));
        assert!(trial.recovered_records > 0, "{label}: the resume recovered an empty journal");
        let o = &trial.outcome;
        assert_eq!(o.digest, yardstick.digest, "{label}: outcome digest drifted after resume");
        assert_eq!(o.found, yardstick.found, "{label}: found count drifted after resume");
        assert_eq!(o.effort, yardstick.effort, "{label}: effort ledger drifted after resume");
    }
}

/// The attacker child's environment (test plumbing between
/// `a_killed_attacker_process_resumes_over_tcp` and `attacker_child`).
const CHILD_ADDR: &str = "HSP_CRASH_CHILD_ADDR";
const CHILD_JOURNAL: &str = "HSP_CRASH_CHILD_JOURNAL";
const CHILD_KILL_AFTER: &str = "HSP_CRASH_CHILD_KILL_AFTER";
const CHILD_RESULT: &str = "HSP_CRASH_CHILD_RESULT";

/// Re-run this test binary as the attacker child: `attacker_child`
/// against `addr`, journaling to `journal`, torn-killed at record
/// `kill_after` if given, writing its result to `result`.
fn spawn_child(
    addr: std::net::SocketAddr,
    journal: &Path,
    kill_after: Option<u64>,
    result: &Path,
) -> std::process::Output {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["attacker_child", "--exact", "--ignored", "--nocapture"])
        .env(CHILD_ADDR, addr.to_string())
        .env(CHILD_JOURNAL, journal)
        .env(CHILD_RESULT, result);
    if let Some(after) = kill_after {
        cmd.env(CHILD_KILL_AFTER, after.to_string());
    }
    cmd.output().expect("spawn the attacker child")
}

/// A real process kill over TCP. The parent serves a crash lab on
/// loopback and keeps it running; a child attacker process, armed to
/// tear its journal mid-frame halfway through, dies by SIGABRT with
/// nothing in its memory surviving, and a successor process resumes
/// from the journal against the same platform. The successor must
/// match the in-process yardstick's outcome digest, found count and
/// whole effort ledger.
#[cfg(unix)]
#[test]
fn a_killed_attacker_process_resumes_over_tcp() {
    use std::os::unix::process::ExitStatusExt;
    const SIGABRT: i32 = 6;
    let cfg = ScenarioConfig::tiny();
    let probe = test_dir("process-probe.journal");
    let _ = std::fs::remove_file(&probe);
    let yardstick = baseline(&crash_lab(&cfg, CHURN), SEED, WORKERS, None, Some(&probe));
    let committed = recover(&probe).expect("probe journal readable").records.len() as u64;

    let mut lab = crash_lab(&cfg, CHURN);
    let addr = lab.serve().expect("serve the crash lab");
    let journal = test_dir("process-kill.journal");
    let result = test_dir("process-kill.result");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&result);

    let kill_after = committed / 2;
    let victim = spawn_child(addr, &journal, Some(kill_after), &result);
    assert_eq!(
        victim.status.signal(),
        Some(SIGABRT),
        "the victim must die by SIGABRT, not {}:\n{}",
        victim.status,
        String::from_utf8_lossy(&victim.stderr)
    );
    assert!(!result.exists(), "the victim wrote a result before dying");
    let log = recover(&journal).expect("victim journal readable");
    assert!(log.torn_bytes > 0, "the torn kill left no torn bytes");
    assert!(
        (log.records.len() as u64) < kill_after,
        "recovery claims {} records at or past the kill point {kill_after}",
        log.records.len()
    );

    let successor = spawn_child(addr, &journal, None, &result);
    assert!(
        successor.status.success(),
        "the successor failed: {}\n{}",
        successor.status,
        String::from_utf8_lossy(&successor.stderr)
    );
    let r: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&result).expect("successor result"))
            .expect("successor result parses");
    let field = |key: &str| r.get(key).unwrap_or_else(|| panic!("result lacks `{key}`")).clone();
    assert!(field("recovered_records").as_u64() > Some(0), "the successor did not resume");
    let digest = format!("{:016x}", yardstick.digest);
    assert_eq!(field("digest").as_str(), Some(digest.as_str()), "outcome digest drifted");
    assert_eq!(field("found").as_u64(), Some(yardstick.found as u64), "found count drifted");
    let effort: Effort = serde_json::from_value(field("effort")).expect("effort parses");
    assert_eq!(effort, yardstick.effort, "effort ledger drifted");
}

/// The attacker process `a_killed_attacker_process_resumes_over_tcp`
/// spawns. Run without the child's environment it does nothing.
#[test]
#[ignore = "the attacker child of a_killed_attacker_process_resumes_over_tcp"]
fn attacker_child() {
    let Ok(addr) = std::env::var(CHILD_ADDR) else { return };
    let addr = addr.parse().expect("child address");
    let journal = PathBuf::from(std::env::var(CHILD_JOURNAL).expect("child journal"));
    let result = PathBuf::from(std::env::var(CHILD_RESULT).expect("child result path"));
    let kill = std::env::var(CHILD_KILL_AFTER)
        .ok()
        .map(|after| KillPlan::torn(after.parse().expect("kill point"), 7));
    let lab = crash_lab(&ScenarioConfig::tiny(), CHURN);
    match attack_over_tcp(&lab, addr, SEED, WORKERS, None, kill, &journal) {
        Ok(trial) => {
            let o = &trial.outcome;
            let row = serde_json::json!({
                "digest": format!("{:016x}", o.digest),
                "found": o.found,
                "effort": o.effort,
                "recovered_records": trial.recovered_records,
            });
            std::fs::write(&result, row.to_string()).expect("write the child result");
        }
        // Die for real, mid-write: no unwinding, no Drop, no flush.
        Err(CrawlError::BadPage("journal kill point")) => std::process::abort(),
        Err(e) => panic!("the attacker child died for a non-kill reason: {e:?}"),
    }
}
