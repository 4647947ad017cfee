//! End-to-end attack runs on the tiny scenario (in-process transport).
//!
//! These tests exercise the complete pipeline — generate world → serve
//! it through the policy engine → crawl → infer → evaluate — and assert
//! the paper's qualitative results hold at small scale.

use hsp_core::{
    evaluate, recover_friend_lists, run_basic, run_coppaless_heuristic, run_enhanced,
    score_minimal_set, AttackConfig, CoppalessOptions, EnhanceOptions, GroundTruth,
};
use hsp_crawler::{OsnAccess, ParallelCrawler};
use hsp_http::DirectExchange;
use hsp_platform::{Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, Policy};
use hsp_synth::{generate, Scenario, ScenarioConfig};
use std::sync::Arc;

fn build(
    scenario: &Scenario,
    policy: Arc<dyn Policy>,
    accounts: usize,
) -> ParallelCrawler<DirectExchange> {
    let platform =
        Platform::new(Arc::new(scenario.network.clone()), policy, PlatformConfig::default());
    let handler = platform.into_handler();
    let exchanges = (0..accounts).map(|_| DirectExchange::new(handler.clone())).collect();
    ParallelCrawler::new(exchanges, "e2e").unwrap()
}

fn attack_config(scenario: &Scenario) -> AttackConfig {
    AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    )
}

#[test]
fn basic_methodology_discovers_most_students() {
    let scenario = generate(&ScenarioConfig::tiny());
    let mut crawler = build(&scenario, Arc::new(FacebookPolicy::new()), 2);
    let config = attack_config(&scenario);
    let discovery = run_basic(&mut crawler, &config).unwrap();

    assert!(!discovery.core.is_empty(), "no core users found");
    assert!(discovery.candidate_count() > discovery.core.len());

    let truth = GroundTruth::from_scenario(&scenario);
    let t = scenario.config.public_enrollment_estimate as usize;
    let guessed = discovery.guessed_students(t);
    let point = evaluate(t, &guessed, |u| discovery.inferred_year(u), &truth);

    // The paper finds 83–92 % at t ≈ school size. At tiny scale the core
    // is only ~12 users and a class can lack cores entirely (the paper's
    // own caveat in §4.1), so demand a looser majority here; the full
    // HS1-scale reproduction in hsp-experiments checks the real bar.
    assert!(
        point.pct_found(truth.len()) > 60.0,
        "found only {:.0}% ({} of {})",
        point.pct_found(truth.len()),
        point.found,
        truth.len()
    );
    // Grad-year classification must be strongly better than the 25 %
    // random baseline (paper: ~92 %).
    assert!(point.pct_correct_year() > 60.0, "correct year only {:.0}%", point.pct_correct_year());
}

#[test]
fn enhanced_methodology_extends_core_and_helps_coverage() {
    let scenario = generate(&ScenarioConfig::tiny());
    let mut crawler = build(&scenario, Arc::new(FacebookPolicy::new()), 2);
    let config = attack_config(&scenario);
    let discovery = run_basic(&mut crawler, &config).unwrap();
    let t = scenario.config.public_enrollment_estimate as usize;

    let enhanced = run_enhanced(
        &mut crawler,
        &discovery,
        &EnhanceOptions { t, filtering: true, enhance: true, school_city: scenario.home_city },
    )
    .unwrap();
    assert!(
        enhanced.extended_core.len() >= discovery.core.len(),
        "enhancement must not shrink the core"
    );

    let truth = GroundTruth::from_scenario(&scenario);
    let basic_point =
        evaluate(t, &discovery.guessed_students(t), |u| discovery.inferred_year(u), &truth);
    let enh_point =
        evaluate(t, &enhanced.guessed_students(t), |u| enhanced.inferred_year(u, &config), &truth);
    // Enhanced+filtering should not be materially worse than basic, and
    // usually better (paper Table 4).
    assert!(
        enh_point.found + 3 >= basic_point.found,
        "enhanced {} vs basic {}",
        enh_point.found,
        basic_point.found
    );
}

#[test]
fn reverse_lookup_recovers_friends_of_registered_minors() {
    let scenario = generate(&ScenarioConfig::tiny());
    let mut crawler = build(&scenario, Arc::new(FacebookPolicy::new()), 2);
    let config = attack_config(&scenario);
    let discovery = run_basic(&mut crawler, &config).unwrap();
    let t = scenario.config.public_enrollment_estimate as usize;
    let guessed = discovery.guessed_students(t);

    let rec = recover_friend_lists(&mut crawler, &guessed).unwrap();
    // Some guessed students have hidden lists, and reverse lookup finds
    // friends for (most of) them.
    assert!(!rec.recovered.is_empty());
    assert!(rec.avg_recovered_len() > 1.0, "avg {}", rec.avg_recovered_len());
    // Everything recovered is true friendship (no hallucinated edges).
    for (&u, friends) in &rec.recovered {
        for &f in friends {
            assert!(scenario.network.are_friends(u, f), "recovered non-edge {u}-{f}");
        }
    }
}

#[test]
fn countermeasure_disabling_reverse_lookup_cripples_the_attack() {
    let scenario = generate(&ScenarioConfig::tiny());
    let config = attack_config(&scenario);
    let truth = GroundTruth::from_scenario(&scenario);
    let t = scenario.config.public_enrollment_estimate as usize;

    let mut with = build(&scenario, Arc::new(FacebookPolicy::new()), 2);
    let d_with = run_basic(&mut with, &config).unwrap();
    let p_with = evaluate(t, &d_with.guessed_students(t), |u| d_with.inferred_year(u), &truth);

    let mut without = build(&scenario, Arc::new(FacebookPolicy::without_reverse_lookup()), 2);
    let d_without = run_basic(&mut without, &config).unwrap();
    let p_without =
        evaluate(t, &d_without.guessed_students(t), |u| d_without.inferred_year(u), &truth);

    // Paper §8: top-500 coverage drops 92 % → 33 %. Require a sharp drop.
    assert!(
        (p_without.found as f64) < 0.75 * p_with.found as f64,
        "countermeasure didn't bite: {} vs {}",
        p_without.found,
        p_with.found
    );
    // Registered minors specifically become nearly invisible.
    let minors: Vec<_> = scenario.registered_minor_students();
    let found_minors = |guessed: &[hsp_graph::UserId]| {
        minors.iter().filter(|m| guessed.binary_search(m).is_ok()).count()
    };
    let with_minors = found_minors(&d_with.guessed_students(t));
    let without_minors = found_minors(&d_without.guessed_students(t));
    assert!(
        without_minors < with_minors,
        "minors: {without_minors} (countermeasure) vs {with_minors}"
    );
}

#[test]
fn coppaless_world_needs_far_more_false_positives() {
    // With-COPPA world.
    let scenario = generate(&ScenarioConfig::tiny());
    let config = attack_config(&scenario);
    let mut crawler = build(&scenario, Arc::new(FacebookPolicy::new()), 2);
    let discovery = run_basic(&mut crawler, &config).unwrap();
    let t = scenario.config.public_enrollment_estimate as usize;

    // Ground-truth minimal-profile students (the §7.2 comparison set).
    let policy = FacebookPolicy::new();
    let mut minimal_students: Vec<_> = scenario
        .roster()
        .into_iter()
        .filter(|&u| policy.stranger_view(&scenario.network, u).is_minimal())
        .collect();
    minimal_students.sort_unstable();
    assert!(!minimal_students.is_empty());

    // With-COPPA: minimal-profile members of the top-t.
    let mut with_guessed: Vec<_> = discovery
        .guessed_students(t)
        .into_iter()
        .filter(|&u| crawler.profile(u).unwrap().is_minimal())
        .collect();
    with_guessed.sort_unstable();
    let with_point = score_minimal_set(t, &with_guessed, &minimal_students);

    // Without-COPPA world: same school, truthful registrations.
    let cl_scenario = generate(&ScenarioConfig::tiny().without_coppa());
    let cl_config = attack_config(&cl_scenario);
    let mut cl_crawler = build(&cl_scenario, Arc::new(FacebookPolicy::new()), 2);
    let run = run_coppaless_heuristic(
        &mut cl_crawler,
        &cl_config,
        &CoppalessOptions { alumni_years_back: 2, min_core_friends: 1 },
    )
    .unwrap();
    let cl_policy = FacebookPolicy::new();
    let mut cl_minimal_students: Vec<_> = cl_scenario
        .roster()
        .into_iter()
        .filter(|&u| cl_policy.stranger_view(&cl_scenario.network, u).is_minimal())
        .collect();
    cl_minimal_students.sort_unstable();
    let cl_point = score_minimal_set(1, &run.guessed, &cl_minimal_students);

    // The paper's Figure 3 shape: for comparable coverage, the COPPA-less
    // attacker drowns in false positives (4,480 vs 70 at ~60 %). At tiny
    // scale just require a large multiple.
    assert!(
        cl_point.false_positives as f64 > 2.0 * with_point.false_positives.max(1) as f64,
        "coppaless FPs {} vs with-COPPA FPs {}",
        cl_point.false_positives,
        with_point.false_positives
    );
}

#[test]
fn effort_is_small_relative_to_school_size() {
    // Paper §5.3: basic ≈ 2× school size requests; enhanced ≈ 5×.
    let scenario = generate(&ScenarioConfig::tiny());
    let mut crawler = build(&scenario, Arc::new(FacebookPolicy::new()), 2);
    let config = attack_config(&scenario);
    let discovery = run_basic(&mut crawler, &config).unwrap();
    let basic_effort = crawler.effort();
    let t = scenario.config.public_enrollment_estimate as usize;
    let _ = run_enhanced(
        &mut crawler,
        &discovery,
        &EnhanceOptions { t, filtering: true, enhance: true, school_city: scenario.home_city },
    )
    .unwrap();
    let total_effort = crawler.effort();
    let size = scenario.config.school_size as u64;
    assert!(
        basic_effort.total() < 8 * size,
        "basic effort {} vs school size {size}",
        basic_effort.total()
    );
    assert!(total_effort.total() > basic_effort.total());
}
