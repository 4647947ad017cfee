//! Cross-crate integration: the attack must produce byte-identical
//! results whether it crawls in-process or over real loopback TCP —
//! i.e. the HTTP layer is a faithful transport, not part of the model.

use hs_profiler::core::{run_basic, AttackConfig};
use hs_profiler::crawler::{OsnAccess, ParallelCrawler};
use hs_profiler::http::{Client, DirectExchange, Exchange, Server};
use hs_profiler::platform::{Platform, PlatformConfig};
use hs_profiler::policy::FacebookPolicy;
use hs_profiler::synth::{generate, ScenarioConfig};
use std::sync::Arc;

fn crawler<E: Exchange + Send>(label: &str, exchange: impl Fn() -> E) -> ParallelCrawler<E> {
    ParallelCrawler::new((0..2).map(|_| exchange()).collect(), label).unwrap()
}

#[test]
fn direct_and_tcp_attacks_agree_exactly() {
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

    // In-process run (accounts get platform indices 0, 1).
    let mut direct = crawler("direct", || DirectExchange::new(handler.clone()));
    let d1 = run_basic(&mut direct, &config).unwrap();

    // TCP run against the same platform (accounts 2, 3 — but the search
    // shard layout depends on account index, so serve a *fresh* platform
    // over the same immutable network for a fair comparison).
    let platform2 = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let server = Server::start(platform2.into_handler()).unwrap();
    let mut tcp = crawler("tcp", || Client::new(server.addr()));
    let d2 = run_basic(&mut tcp, &config).unwrap();

    assert_eq!(d1.seeds, d2.seeds, "seed sets differ across transports");
    assert_eq!(d1.claiming, d2.claiming);
    assert_eq!(d1.core.len(), d2.core.len());
    for (a, b) in d1.core.iter().zip(&d2.core) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.grad_year, b.grad_year);
        assert_eq!(a.friends, b.friends);
    }
    let r1: Vec<_> = d1.ranked.iter().map(|c| (c.id, c.core_friends_by_class)).collect();
    let r2: Vec<_> = d2.ranked.iter().map(|c| (c.id, c.core_friends_by_class)).collect();
    assert_eq!(r1, r2, "rankings differ across transports");

    // Identical page fetches => identical effort counts.
    assert_eq!(direct.effort(), tcp.effort());
    server.shutdown();
}

#[test]
fn attack_is_deterministic_across_repeat_runs() {
    let run = || {
        let scenario = generate(&ScenarioConfig::tiny());
        let platform = Platform::new(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig::default(),
        );
        let handler = platform.into_handler();
        let mut crawler = crawler("det", || DirectExchange::new(handler.clone()));
        let config = AttackConfig::new(
            scenario.school,
            scenario.network.senior_class_year(),
            scenario.config.public_enrollment_estimate,
        );
        let d = run_basic(&mut crawler, &config).unwrap();
        let guessed = d.guessed_students(100);
        (d.seeds, guessed, crawler.effort())
    };
    assert_eq!(run(), run());
}
