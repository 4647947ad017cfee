//! Parallel-pipeline scaling benchmark: the full attack at 1/2/4/8
//! crawl workers and the sharded population build at 1/2/4/8 threads,
//! with the determinism contract checked at every point. Appends rows
//! to `BENCH_crawl.json` at the workspace root.
//!
//! ```sh
//! cargo run --release --example crawl_bench            # HS1, asserts ≥3× at 8 workers
//! cargo run --release --example crawl_bench -- --smoke # tiny world, CI gate
//! ```
//!
//! Crawl throughput is reported against the *modeled virtual makespan*
//! (`ParallelCrawler::virtual_elapsed_ms`): per-batch greedy makespans
//! over per-account politeness/backoff timelines. That is the honest
//! number on a single-CPU container — real wall-clock there measures
//! the box, not the scheduler — and it is bit-reproducible, so the
//! speedup claim is too.

use hs_profiler::experiments::runner::{full_attack_with, Lab};
use hs_profiler::synth::{generate_sharded, ScenarioConfig};
use std::time::Instant;

const SEED: u64 = 0x9d5f_2013;
/// Fixed account pool: worker counts sweep lanes over the same seats so
/// every point replays the identical request stream.
const ACCOUNTS: usize = 8;
const POINTS: [usize; 4] = [1, 2, 4, 8];

struct CrawlRow {
    workers: usize,
    pages: u64,
    real_secs: f64,
    virtual_secs: f64,
    pages_per_virtual_sec: f64,
    /// Determinism witnesses: must match across all rows.
    seeds: Vec<hs_profiler::graph::UserId>,
    effort: hs_profiler::crawler::Effort,
}

struct SynthRow {
    threads: usize,
    users: usize,
    real_secs: f64,
    users_per_sec: f64,
    fingerprint: u64,
}

fn crawl_point(cfg: &ScenarioConfig, workers: usize) -> CrawlRow {
    let lab = Lab::facebook(cfg);
    let access = lab.crawler(ACCOUNTS, "atk").workers(workers).seed(SEED).boxed();
    let started = Instant::now();
    let run = full_attack_with(&lab, access);
    let real_secs = started.elapsed().as_secs_f64();
    let virtual_secs = run.access.virtual_elapsed_ms() as f64 / 1000.0;
    let pages = run.effort_total.total();
    CrawlRow {
        workers,
        pages,
        real_secs,
        virtual_secs,
        pages_per_virtual_sec: pages as f64 / virtual_secs.max(1e-9),
        seeds: run.discovery.seeds.clone(),
        effort: run.effort_total,
    }
}

fn synth_point(cfg: &ScenarioConfig, threads: usize) -> SynthRow {
    let started = Instant::now();
    let scenario = generate_sharded(cfg, threads);
    let real_secs = started.elapsed().as_secs_f64();
    let users = scenario.network.user_count();
    SynthRow {
        threads,
        users,
        real_secs,
        users_per_sec: users as f64 / real_secs.max(1e-9),
        fingerprint: scenario.network.fingerprint(),
    }
}

/// Append the run to `<workspace>/BENCH_crawl.json` (a JSON array of
/// row objects; created on first use), mirroring `BENCH_chaos.json`.
fn append_headline(school: &str, crawl: &[CrawlRow], synth: &[SynthRow], speedup: f64) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_crawl.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    let Some(arr) = runs.as_array_mut() else { return };
    for row in crawl {
        arr.push(serde_json::json!({
            "bench": "crawl_attack",
            "school": school,
            "workers": row.workers as u64,
            "accounts": ACCOUNTS as u64,
            "pages": row.pages,
            "real_secs": row.real_secs,
            "virtual_secs": row.virtual_secs,
            "pages_per_virtual_sec": row.pages_per_virtual_sec,
        }));
    }
    for row in synth {
        arr.push(serde_json::json!({
            "bench": "synth_build",
            "school": school,
            "threads": row.threads as u64,
            "users": row.users as u64,
            "real_secs": row.real_secs,
            "users_per_sec": row.users_per_sec,
            "fingerprint": format!("{:#018x}", row.fingerprint),
        }));
    }
    arr.push(serde_json::json!({
        "bench": "crawl_speedup",
        "school": school,
        "workers": 8u64,
        "modeled_speedup": speedup,
    }));
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!(
                "[crawl_bench] appended {} rows to BENCH_crawl.json",
                crawl.len() + synth.len() + 1
            );
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (school, cfg) =
        if smoke { ("TINY", ScenarioConfig::tiny()) } else { ("HS1", ScenarioConfig::hs1()) };
    println!("crawl/synth scaling on {school} (seed {SEED:#x}, {ACCOUNTS} accounts)");

    println!(
        "{:>7}  {:>7}  {:>9}  {:>9}  {:>12}",
        "workers", "pages", "real-s", "virt-s", "pages/virt-s"
    );
    let crawl: Vec<CrawlRow> = POINTS.iter().map(|&w| crawl_point(&cfg, w)).collect();
    for row in &crawl {
        println!(
            "{:>7}  {:>7}  {:>9.2}  {:>9.1}  {:>12.1}",
            row.workers, row.pages, row.real_secs, row.virtual_secs, row.pages_per_virtual_sec
        );
    }
    // Determinism: every worker count replayed the identical attack.
    for row in &crawl[1..] {
        assert_eq!(row.seeds, crawl[0].seeds, "seeds diverged at workers={}", row.workers);
        assert_eq!(row.effort, crawl[0].effort, "effort diverged at workers={}", row.workers);
    }
    let speedup = crawl[0].virtual_secs / crawl[POINTS.len() - 1].virtual_secs.max(1e-9);
    println!("modeled attack speedup at 8 workers: {speedup:.2}x");

    println!("{:>7}  {:>7}  {:>9}  {:>12}", "threads", "users", "real-s", "users/s");
    let synth: Vec<SynthRow> = POINTS.iter().map(|&t| synth_point(&cfg, t)).collect();
    for row in &synth {
        println!(
            "{:>7}  {:>7}  {:>9.3}  {:>12.0}",
            row.threads, row.users, row.real_secs, row.users_per_sec
        );
    }
    for row in &synth[1..] {
        assert_eq!(
            row.fingerprint, synth[0].fingerprint,
            "sharded build diverged at threads={}",
            row.threads
        );
    }
    println!("synth fingerprint identical at all thread counts: {:#018x}", synth[0].fingerprint);

    append_headline(school, &crawl, &synth, speedup);

    if !smoke {
        assert!(speedup >= 3.0, "expected ≥3x modeled speedup at 8 workers, got {speedup:.2}x");
        println!("speedup gate (≥3x at 8 workers): PASS");
    }
}
