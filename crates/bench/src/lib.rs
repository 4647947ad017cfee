//! # hsp-bench — benchmark support
//!
//! Shared fixtures for the Criterion benches: a lazily-built tiny world
//! mounted on the platform, plus helpers to spin up fresh crawlers.
//! The benches regenerate each paper table/figure at reduced (tiny)
//! scale so a full `cargo bench` stays in CI-friendly time; the
//! experiments binary is the full-scale regenerator.

use hsp_core::{run_basic, AttackConfig, Discovery};
use hsp_crawler::ParallelCrawler;
use hsp_http::{DirectExchange, Handler};
use hsp_platform::{Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, Policy};
use hsp_synth::{generate, Scenario, ScenarioConfig};
use std::sync::Arc;

/// A reusable bench world: generated scenario + mounted platform.
pub struct BenchWorld {
    pub scenario: Scenario,
    pub handler: Arc<dyn Handler>,
    pub config: AttackConfig,
}

impl BenchWorld {
    /// Build the tiny scenario behind the standard Facebook policy.
    pub fn tiny() -> BenchWorld {
        Self::with_policy(Arc::new(FacebookPolicy::new()))
    }

    /// Build the tiny scenario behind an arbitrary policy.
    pub fn with_policy(policy: Arc<dyn Policy>) -> BenchWorld {
        let scenario = generate(&ScenarioConfig::tiny());
        // Benches re-run the crawl thousands of times against one
        // platform; lift the anti-crawl cap so iteration count, not the
        // simulated suspension rule, bounds the benchmark.
        let config = PlatformConfig { suspension_threshold: u64::MAX, ..PlatformConfig::default() };
        let platform = Platform::new(Arc::new(scenario.network.clone()), policy, config);
        let handler = platform.into_handler();
        let config = AttackConfig::new(
            scenario.school,
            scenario.network.senior_class_year(),
            scenario.config.public_enrollment_estimate,
        );
        BenchWorld { scenario, handler, config }
    }

    /// A fresh logged-in crawler with `n` accounts (uncached).
    pub fn crawler(&self, n: usize, label: &str) -> ParallelCrawler<DirectExchange> {
        let exchanges = (0..n).map(|_| DirectExchange::new(self.handler.clone())).collect();
        ParallelCrawler::new(exchanges, label).expect("bench crawler")
    }

    /// A completed basic discovery (fresh crawl).
    pub fn discovery(&self) -> (ParallelCrawler<DirectExchange>, Discovery) {
        let mut crawler = self.crawler(2, "bench");
        let discovery = run_basic(&mut crawler, &self.config).expect("bench discovery");
        (crawler, discovery)
    }
}
