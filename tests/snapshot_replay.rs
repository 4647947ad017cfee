//! Offline replay: a captured crawl snapshot must reproduce the same
//! discovery as the live crawl — the paper's crawl-once / analyze-
//! offline workflow.

use hs_profiler::core::{run_basic, AttackConfig};
use hs_profiler::crawler::{CrawlSnapshot, ParallelCrawler, SnapshotAccess};
use hs_profiler::http::{DirectExchange, Handler};
use hs_profiler::platform::{Platform, PlatformConfig};
use hs_profiler::policy::FacebookPolicy;
use hs_profiler::synth::{generate, ScenarioConfig};
use std::sync::Arc;

fn crawler(handler: &Arc<dyn Handler>) -> ParallelCrawler<DirectExchange> {
    let exchanges = (0..2).map(|_| DirectExchange::new(handler.clone())).collect();
    ParallelCrawler::new(exchanges, "snap").unwrap()
}

#[test]
fn offline_replay_reproduces_live_discovery() {
    let scenario = generate(&ScenarioConfig::tiny());
    let platform = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let handler = platform.into_handler();
    let config = AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    );

    // Live run.
    let mut live = crawler(&handler);
    let live_discovery = run_basic(&mut live, &config).unwrap();

    // Capture through a second crawler with the same account layout (a
    // fresh platform instance so account indices match).
    let platform2 = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let mut capture_crawler = crawler(&platform2.into_handler());
    let snapshot = CrawlSnapshot::capture(&mut capture_crawler, scenario.school, &[]).unwrap();
    assert!(snapshot.effort.total() > 0);

    // JSON round trip, then replay the methodology offline.
    let restored = CrawlSnapshot::from_json(&snapshot.to_json().unwrap()).unwrap();
    let mut offline = SnapshotAccess::new(restored);
    let offline_discovery = run_basic(&mut offline, &config).unwrap();

    assert_eq!(offline_discovery.seeds, live_discovery.seeds);
    assert_eq!(offline_discovery.claiming, live_discovery.claiming);
    assert_eq!(offline_discovery.core.len(), live_discovery.core.len());
    let key = |d: &hs_profiler::core::Discovery| {
        d.ranked.iter().map(|c| (c.id, c.core_friends_by_class)).collect::<Vec<_>>()
    };
    assert_eq!(key(&offline_discovery), key(&live_discovery));
    // Replay cost nothing.
    assert_eq!(offline.original_effort().total(), snapshot.effort.total());
}
