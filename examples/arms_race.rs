//! Defender arms race: sweep the platform's sybil-detector strength
//! tiers against the naive and the adaptive crawler on the full HS1
//! attack, gate the frontier, and append the rows to
//! `BENCH_defense.json` at the workspace root.
//!
//! ```sh
//! cargo run --release --example arms_race          # or scripts/arms_race.sh
//! ARMS_SCENARIO=tiny cargo run --release --example arms_race   # CI smoke
//! ```
//!
//! Gates (the run panics if any fails):
//! - `DetectorStrength::Off` reproduces the undefended baseline attack
//!   bit-for-bit: same Table-4 numbers, same effort ledger, same
//!   virtual wall-clock.
//! - Per crawler mode, the session detection rate is monotone
//!   non-decreasing in detector strength.
//! - The strongest tier detects at least 50% of the naive crawler's
//!   long-lived sessions.
//! - The naive attacker's virtual wall-clock cost is monotone
//!   non-decreasing in detector strength.
//! - Rows are deterministic per seed (the High/adaptive cell is run
//!   twice and must reproduce exactly).

use hs_profiler::core::{evaluate, run_basic, run_enhanced, EnhanceOptions};
use hs_profiler::crawler::{AdaptiveStrategy, CrawlError, Effort, OsnAccess};
use hs_profiler::experiments::runner::Lab;
use hs_profiler::platform::{DefenseConfig, DetectorStrength};
use hs_profiler::synth::ScenarioConfig;

const SEED: u64 = 0x9d5f_2013;

/// Denominator floor for the detection rate: sessions that lived at
/// least as long as the weakest tier needs to form an opinion, so
/// short-lived recruits don't dilute strong-tier rates.
const SESSION_FLOOR: u64 = 48;

const STRENGTHS: [DetectorStrength; 4] = [
    DetectorStrength::Off,
    DetectorStrength::Low,
    DetectorStrength::Medium,
    DetectorStrength::High,
];

#[derive(Clone, PartialEq, Debug)]
struct Cell {
    strength: DetectorStrength,
    mode: &'static str,
    completed: bool,
    error: Option<String>,
    found: usize,
    correct_year: usize,
    false_positives: usize,
    sessions_eligible: u64,
    sessions_flagged: u64,
    detection_pm: u64,
    effort: Effort,
    suspensions: u64,
    recruited: u64,
    virtual_minutes: f64,
}

/// The full basic+enhanced attack, with errors reported instead of
/// panicking — being crawled to death by the detector is a legitimate
/// data point.
fn attack(lab: &Lab, access: &mut dyn OsnAccess) -> Result<(usize, usize, usize), CrawlError> {
    let config = lab.attack_config();
    let discovery = run_basic(access, &config)?;
    let t = config.school_size_estimate as usize;
    let enhanced = run_enhanced(
        access,
        &discovery,
        &EnhanceOptions { t, filtering: true, enhance: true, school_city: lab.scenario.home_city },
    )?;
    let truth = lab.ground_truth();
    let point =
        evaluate(t, &enhanced.guessed_students(t), |u| enhanced.inferred_year(u, &config), &truth);
    Ok((point.found, point.correct_year, point.false_positives))
}

fn measure(lab: &Lab, strength: DetectorStrength, mode: &'static str) -> Cell {
    let adaptive = if mode == "adaptive" { Some(AdaptiveStrategy::seeded(SEED)) } else { None };
    let mut access = lab.crawler(2, "arms").seed(SEED).max_accounts(64).adaptive(adaptive).boxed();
    let outcome = attack(lab, access.as_mut());
    let effort = access.effort();
    let snap = lab.obs.snapshot();
    let (eligible, flagged) = lab.platform.defense.frontier_counts(SESSION_FLOOR);
    let (found, correct_year, false_positives) = *outcome.as_ref().unwrap_or(&(0, 0, 0));
    Cell {
        strength,
        mode,
        completed: outcome.is_ok(),
        error: outcome.err().map(|e| e.to_string()),
        found,
        correct_year,
        false_positives,
        sessions_eligible: eligible,
        sessions_flagged: flagged,
        detection_pm: (flagged * 1_000).checked_div(eligible).unwrap_or(0),
        effort,
        suspensions: snap.counter("crawler_account_suspensions_total"),
        recruited: snap.counter("crawler_accounts_recruited_total"),
        virtual_minutes: access.virtual_elapsed_ms() as f64 / 60_000.0,
    }
}

fn sweep_cell(cfg: &ScenarioConfig, strength: DetectorStrength, mode: &'static str) -> Cell {
    let lab = Lab::facebook_defended(cfg, DefenseConfig { strength, ..DefenseConfig::default() });
    measure(&lab, strength, mode)
}

/// The undefended reference attack (no defense subsystem in the
/// config at all) that `DetectorStrength::Off` must reproduce.
fn baseline(cfg: &ScenarioConfig) -> Cell {
    let lab = Lab::facebook(cfg);
    measure(&lab, DetectorStrength::Off, "naive")
}

fn gate_frontier(scenario: &str, baseline: &Cell, cells: &[Cell]) {
    let off_naive = cells
        .iter()
        .find(|c| c.strength == DetectorStrength::Off && c.mode == "naive")
        .expect("off/naive cell");
    assert_eq!(
        (off_naive.found, off_naive.correct_year, off_naive.false_positives),
        (baseline.found, baseline.correct_year, baseline.false_positives),
        "[{scenario}] detector-off must reproduce the baseline Table 4 exactly"
    );
    assert_eq!(
        off_naive.effort, baseline.effort,
        "[{scenario}] detector-off must leave the attack effort ledger unchanged"
    );
    assert_eq!(
        off_naive.virtual_minutes, baseline.virtual_minutes,
        "[{scenario}] detector-off must leave the attack virtual wall-clock unchanged"
    );
    for mode in ["naive", "adaptive"] {
        let rates: Vec<u64> = STRENGTHS
            .iter()
            .map(|&s| {
                cells
                    .iter()
                    .find(|c| c.strength == s && c.mode == mode)
                    .expect("sweep cell")
                    .detection_pm
            })
            .collect();
        assert!(
            rates.windows(2).all(|w| w[0] <= w[1]),
            "[{scenario}] {mode} detection rate must be monotone in strength, got {rates:?}"
        );
    }
    let high_naive = cells
        .iter()
        .find(|c| c.strength == DetectorStrength::High && c.mode == "naive")
        .expect("high/naive cell");
    assert!(
        high_naive.detection_pm >= 500,
        "[{scenario}] strongest tier must detect >=50% of naive sessions, got {}permille",
        high_naive.detection_pm
    );
    let costs: Vec<f64> = STRENGTHS
        .iter()
        .map(|&s| {
            cells
                .iter()
                .find(|c| c.strength == s && c.mode == "naive")
                .expect("sweep cell")
                .virtual_minutes
        })
        .collect();
    assert!(
        costs.windows(2).all(|w| w[0] <= w[1]),
        "[{scenario}] naive attack cost must be monotone in detector strength, got {costs:?}"
    );
}

/// Append the sweep to `<workspace>/BENCH_defense.json` (a JSON array
/// of run objects; created on first use), mirroring `BENCH_chaos.json`.
fn append_headline(scenario: &str, cells: &[Cell]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_defense.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    for cell in cells {
        let mut entry = serde_json::Map::new();
        entry.insert("bench".into(), format!("arms_race_{scenario}").into());
        entry.insert("detector".into(), serde_json::Value::from(cell.strength.label()));
        entry.insert("crawler".into(), serde_json::Value::from(cell.mode));
        entry.insert("completed".into(), serde_json::Value::from(cell.completed));
        if let Some(e) = &cell.error {
            entry.insert("error".into(), serde_json::Value::from(e.as_str()));
        }
        entry.insert("found".into(), serde_json::Value::from(cell.found as u64));
        entry.insert("correct_year".into(), serde_json::Value::from(cell.correct_year as u64));
        entry
            .insert("false_positives".into(), serde_json::Value::from(cell.false_positives as u64));
        entry.insert("sessions_eligible".into(), serde_json::Value::from(cell.sessions_eligible));
        entry.insert("sessions_flagged".into(), serde_json::Value::from(cell.sessions_flagged));
        entry.insert("detection_pm".into(), serde_json::Value::from(cell.detection_pm));
        entry.insert("total_requests".into(), serde_json::Value::from(cell.effort.total()));
        entry.insert("retries".into(), serde_json::Value::from(cell.effort.retry_requests));
        entry.insert(
            "captcha_challenges".into(),
            serde_json::Value::from(cell.effort.captcha_challenges),
        );
        entry.insert(
            "captcha_virtual_ms".into(),
            serde_json::Value::from(cell.effort.captcha_virtual_ms),
        );
        entry.insert("decoy_requests".into(), serde_json::Value::from(cell.effort.decoy_requests));
        entry.insert("suspensions".into(), serde_json::Value::from(cell.suspensions));
        entry.insert("accounts_recruited".into(), serde_json::Value::from(cell.recruited));
        entry.insert("virtual_minutes".into(), serde_json::Value::from(cell.virtual_minutes));
        if let Some(arr) = runs.as_array_mut() {
            arr.push(serde_json::Value::Object(entry));
        }
    }
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!("[arms-race] appended {} rows to BENCH_defense.json", cells.len());
        }
    }
}

fn main() {
    let scenario = std::env::var("ARMS_SCENARIO").unwrap_or_else(|_| "hs1".to_string());
    let cfg = match scenario.as_str() {
        "hs1" => ScenarioConfig::hs1(),
        "tiny" => ScenarioConfig::tiny(),
        other => panic!("unknown ARMS_SCENARIO {other:?} (use hs1 or tiny)"),
    };
    println!("arms race: {scenario} attack vs sybil-detector strength (seed {SEED:#x})");
    println!(
        "{:>8}  {:>8}  {:>9}  {:>9}  {:>6}  {:>5}  {:>8}  {:>7}  {:>8}  {:>6}  {:>9}  {:>8}",
        "detector",
        "crawler",
        "completed",
        "detected",
        "rate",
        "found",
        "requests",
        "retries",
        "captchas",
        "decoys",
        "suspended",
        "virt-min"
    );
    let base = baseline(&cfg);
    let mut cells = Vec::new();
    for strength in STRENGTHS {
        for mode in ["naive", "adaptive"] {
            let cell = sweep_cell(&cfg, strength, mode);
            println!(
                "{:>8}  {:>8}  {:>9}  {:>9}  {:>5}‰  {:>5}  {:>8}  {:>7}  {:>8}  {:>6}  {:>9}  {:>8.1}",
                cell.strength.label(),
                cell.mode,
                if cell.completed { "yes" } else { "DIED" },
                format!("{}/{}", cell.sessions_flagged, cell.sessions_eligible),
                cell.detection_pm,
                cell.found,
                cell.effort.total(),
                cell.effort.retry_requests,
                cell.effort.captcha_challenges,
                cell.effort.decoy_requests,
                cell.suspensions,
                cell.virtual_minutes
            );
            if let Some(e) = &cell.error {
                println!("          ^ died with: {e}");
            }
            cells.push(cell);
        }
    }
    gate_frontier(&scenario, &base, &cells);
    // Determinism gate: the most eventful cell (full ladder + evasion)
    // must reproduce exactly from the same seed.
    let replay = sweep_cell(&cfg, DetectorStrength::High, "adaptive");
    let first = cells
        .iter()
        .find(|c| c.strength == DetectorStrength::High && c.mode == "adaptive")
        .expect("high/adaptive cell");
    assert_eq!(*first, replay, "[{scenario}] arms-race rows must be deterministic per seed");
    println!("[arms-race] gates passed: off==baseline, monotone frontier, high/naive >=500permille, deterministic replay");
    append_headline(&scenario, &cells);
}
