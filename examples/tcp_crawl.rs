//! TCP crawl: the same attack as `quickstart`, but over a real
//! loopback HTTP server — every page the attacker sees travels through
//! the from-scratch HTTP/1.1 stack (`hsp-http`), exactly as the paper's
//! crawler fetched real web pages. (For the attack against a world that
//! mutates *during* the crawl, run `experiments freshness`.)
//!
//! ```sh
//! cargo run --release --example tcp_crawl
//! ```

use hs_profiler::core::{evaluate, run_basic, AttackConfig, GroundTruth};
use hs_profiler::crawler::{OsnAccess, ParallelCrawler};
use hs_profiler::http::{Client, Server};
use hs_profiler::platform::{Platform, PlatformConfig};
use hs_profiler::policy::FacebookPolicy;
use hs_profiler::synth::{generate, ScenarioConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let scenario = generate(&ScenarioConfig::tiny());
    println!("world: {}", scenario.summary());

    // Serve the OSN on an ephemeral loopback port.
    let platform = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let server = Server::start(platform.into_handler()).expect("bind loopback");
    println!("simulated OSN listening on {}", server.base_url());

    // Attack over real sockets: two fake accounts, keep-alive
    // connections, cookies, AJAX paging — the whole §3.2 pipeline.
    let exchanges = (0..2).map(|_| Client::new(server.addr())).collect();
    let mut crawler = ParallelCrawler::new(exchanges, "live").expect("crawler");
    let config = AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    );

    let started = Instant::now();
    let discovery = run_basic(&mut crawler, &config).expect("basic methodology over TCP");
    let elapsed = started.elapsed();

    let effort = crawler.effort();
    println!(
        "crawl: {} over TCP in {elapsed:.2?} ({:.0} req/s actual)",
        effort,
        effort.total() as f64 / elapsed.as_secs_f64()
    );
    println!(
        "a polite crawler sleeping 1.5 s between requests would have taken ~{:.1} minutes \
         (paper §3.2's sleeping functions)",
        crawler.virtual_elapsed_ms() as f64 / 60_000.0
    );

    let truth = GroundTruth::from_scenario(&scenario);
    let t = config.school_size_estimate as usize;
    let guessed = discovery.guessed_students(t);
    let point = evaluate(t, &guessed, |u| discovery.inferred_year(u), &truth);
    println!(
        "basic methodology over live HTTP: {}/{} students found ({:.0}%), {} false positives",
        point.found,
        truth.len(),
        point.pct_found(truth.len()),
        point.false_positives
    );

    server.shutdown();
}
