//! Quickstart: generate a small synthetic OSN world, run the paper's
//! high-school profiling attack against it in-process, and score the
//! result against ground truth.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hs_profiler::core::{
    evaluate, run_basic, run_enhanced, AttackConfig, EnhanceOptions, GroundTruth,
};
use hs_profiler::crawler::{OsnAccess, ParallelCrawler};
use hs_profiler::http::DirectExchange;
use hs_profiler::platform::{Platform, PlatformConfig};
use hs_profiler::policy::FacebookPolicy;
use hs_profiler::synth::{generate, ScenarioConfig};
use std::sync::Arc;

fn main() {
    // 1. Generate a synthetic world: a 128-student high school, its
    //    alumni, churned transfers, parents and a community pool —
    //    with the paper's age-lying model deciding who is a "minor
    //    registered as an adult".
    let scenario = generate(&ScenarioConfig::tiny());
    println!("world: {}", scenario.summary());

    // 2. Mount it on the simulated OSN behind Facebook's minor-privacy
    //    policy (registered minors are capped to minimal profiles and
    //    excluded from search).
    let platform = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let handler = platform.into_handler();

    // 3. The attacker: two fake accounts, crawling only stranger-visible
    //    pages.
    let exchanges = (0..2).map(|_| DirectExchange::new(handler.clone())).collect();
    let mut crawler = ParallelCrawler::new(exchanges, "quickstart").expect("crawler");
    let config = AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    );

    // 4. Run the basic methodology (§4.1) ...
    let discovery = run_basic(&mut crawler, &config).expect("basic methodology");
    println!(
        "basic: {} seeds -> {} claiming -> {} core users -> {} candidates",
        discovery.seeds.len(),
        discovery.claiming.len(),
        discovery.core.len(),
        discovery.candidate_count()
    );

    // 5. ... then the enhanced pass with the §4.4 filters.
    let t = config.school_size_estimate as usize;
    let enhanced = run_enhanced(
        &mut crawler,
        &discovery,
        &EnhanceOptions { t, filtering: true, enhance: true, school_city: scenario.home_city },
    )
    .expect("enhanced methodology");
    println!(
        "enhanced: extended core {} users; crawl effort: {}",
        enhanced.extended_core.len(),
        crawler.effort()
    );

    // 6. Score against the generator's ground truth (standing in for the
    //    paper's confidential roster).
    let truth = GroundTruth::from_scenario(&scenario);
    let guessed = enhanced.guessed_students(t);
    let point = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
    println!(
        "result @ t={t}: found {}/{} students ({:.0}%), {} false positives ({:.0}%), \
         {:.0}% of found classified in the correct graduation year",
        point.found,
        truth.len(),
        point.pct_found(truth.len()),
        point.false_positives,
        point.pct_false_positives(),
        point.pct_correct_year(),
    );
}
