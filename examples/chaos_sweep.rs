//! Chaos intensity sweep: run the full HS1 attack with the resilient
//! crawler against increasingly hostile platforms — multiples of the
//! canonical `FaultPlan::chaos()` profile — and append the headline
//! survival numbers to `BENCH_chaos.json` at the workspace root.
//!
//! ```sh
//! cargo run --release --example chaos_sweep        # or scripts/chaos.sh
//! ```
//!
//! Each row answers: did the attack complete at this fault intensity,
//! what did it find, and what did surviving cost (retries, recruited
//! accounts, extra requests, virtual wall-clock)? The run fails unless
//! every factor (up to 4×) completes and finds exactly what factor 0
//! finds (Table 4's found and correct-year).

use hs_profiler::core::{evaluate, run_basic, run_enhanced, Completeness, EnhanceOptions};
use hs_profiler::crawler::{CrawlError, OsnAccess};
use hs_profiler::experiments::runner::Lab;
use hs_profiler::platform::FaultPlan;
use hs_profiler::synth::ScenarioConfig;

const SEED: u64 = 0x9d5f_2013;

struct SweepRow {
    factor: f64,
    completed: bool,
    error: Option<String>,
    found: usize,
    correct_year: usize,
    false_positives: usize,
    total_requests: u64,
    retries: u64,
    suspensions: u64,
    recruited: u64,
    partial_friend_lists: usize,
    virtual_minutes: f64,
}

/// `full_attack` with errors reported instead of panicking — at high
/// fault intensity, dying *is* a legitimate data point.
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

fn sweep_point(factor: f64) -> SweepRow {
    let plan = if factor == 0.0 { FaultPlan::default() } else { FaultPlan::chaos().scaled(factor) };
    let lab = Lab::facebook_chaotic(&ScenarioConfig::hs1(), plan);
    let mut access = lab.crawler(2, "atk").seed(SEED).boxed();
    let outcome = attack(&lab, access.as_mut());
    let completeness = Completeness::from_access(access.as_ref());
    let snap = lab.obs.snapshot();
    let effort = access.effort();
    let (found, correct_year, false_positives) = *outcome.as_ref().unwrap_or(&(0, 0, 0));
    SweepRow {
        factor,
        completed: outcome.is_ok(),
        error: outcome.err().map(|e| e.to_string()),
        found,
        correct_year,
        false_positives,
        total_requests: effort.total(),
        retries: effort.retry_requests,
        suspensions: snap.counter("crawler_account_suspensions_total"),
        recruited: snap.counter("crawler_accounts_recruited_total"),
        partial_friend_lists: completeness.incomplete_friend_lists.len(),
        virtual_minutes: access.virtual_elapsed_ms() as f64 / 60_000.0,
    }
}

/// Append the sweep to `<workspace>/BENCH_chaos.json` (a JSON array of
/// run objects; created on first use), mirroring `BENCH_obs.json`.
fn append_headline(rows: &[SweepRow]) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_chaos.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    for row in rows {
        let mut entry = serde_json::Map::new();
        entry.insert("bench".into(), serde_json::Value::from("chaos_hs1"));
        entry.insert("fault_factor".into(), serde_json::Value::from(row.factor));
        entry.insert("completed".into(), serde_json::Value::from(row.completed));
        if let Some(e) = &row.error {
            entry.insert("error".into(), serde_json::Value::from(e.as_str()));
        }
        entry.insert("found".into(), serde_json::Value::from(row.found as u64));
        entry.insert("correct_year".into(), serde_json::Value::from(row.correct_year as u64));
        entry.insert("false_positives".into(), serde_json::Value::from(row.false_positives as u64));
        entry.insert("total_requests".into(), serde_json::Value::from(row.total_requests));
        entry.insert("retries".into(), serde_json::Value::from(row.retries));
        entry.insert("suspensions".into(), serde_json::Value::from(row.suspensions));
        entry.insert("accounts_recruited".into(), serde_json::Value::from(row.recruited));
        entry.insert(
            "partial_friend_lists".into(),
            serde_json::Value::from(row.partial_friend_lists as u64),
        );
        entry.insert("virtual_minutes".into(), serde_json::Value::from(row.virtual_minutes));
        if let Some(arr) = runs.as_array_mut() {
            arr.push(serde_json::Value::Object(entry));
        }
    }
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!("[chaos] appended {} rows to BENCH_chaos.json", rows.len());
        }
    }
}

fn main() {
    println!("chaos sweep: HS1 attack vs fault intensity (seed {SEED:#x})");
    println!(
        "{:>6}  {:>9}  {:>5}  {:>5}  {:>8}  {:>7}  {:>9}  {:>9}  {:>8}  {:>8}",
        "factor",
        "completed",
        "found",
        "year",
        "requests",
        "retries",
        "suspended",
        "recruited",
        "partial",
        "virt-min"
    );
    let mut rows = Vec::new();
    for factor in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let row = sweep_point(factor);
        println!(
            "{:>6.1}  {:>9}  {:>5}  {:>5}  {:>8}  {:>7}  {:>9}  {:>9}  {:>8}  {:>8.1}",
            row.factor,
            if row.completed { "yes" } else { "DIED" },
            row.found,
            row.correct_year,
            row.total_requests,
            row.retries,
            row.suspensions,
            row.recruited,
            row.partial_friend_lists,
            row.virtual_minutes
        );
        if let Some(e) = &row.error {
            println!("        ^ died with: {e}");
        }
        rows.push(row);
    }
    append_headline(&rows);

    // Gates: every factor completes, and surviving the faults never
    // changes what the attack finds — only what it costs.
    let base = &rows[0];
    let failures: Vec<String> = rows
        .iter()
        .filter_map(|r| {
            if !r.completed {
                Some(format!("x{:.1} did not complete", r.factor))
            } else if (r.found, r.correct_year) != (base.found, base.correct_year) {
                Some(format!(
                    "x{:.1} found {}/{} correct-year, factor 0 found {}/{}",
                    r.factor, r.found, r.correct_year, base.found, base.correct_year
                ))
            } else {
                None
            }
        })
        .collect();
    if !failures.is_empty() {
        eprintln!("CHAOS SWEEP GATE FAILED:");
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
    println!("chaos sweep gates passed: every factor completed with factor 0's findings.");
}
