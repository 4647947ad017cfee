//! The full §2 threat chain against a generated world: attack →
//! constructed profiles → voter-roll linking → phishing channel →
//! exposure distribution.

use hsp_core::{construct_profile, recover_friend_lists, run_basic, AttackConfig};
use hsp_crawler::{OsnAccess, ParallelCrawler};
use hsp_http::DirectExchange;
use hsp_platform::{Platform, PlatformConfig};
use hsp_policy::FacebookPolicy;
use hsp_synth::{generate, Scenario, ScenarioConfig};
use hsp_threats::{
    exposure_of, link_students, run_campaign, ExposureDistribution, LinkConfidence, VoterRoll,
};
use std::sync::Arc;

fn attack(scenario: &Scenario) -> (ParallelCrawler<DirectExchange>, AttackConfig) {
    let platform = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let handler = platform.into_handler();
    let exchanges = (0..2).map(|_| DirectExchange::new(handler.clone())).collect();
    let crawler = ParallelCrawler::new(exchanges, "threat").unwrap();
    let config = AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    );
    (crawler, config)
}

#[test]
fn threat_chain_resolves_addresses_and_measures_phishing() {
    let scenario = generate(&ScenarioConfig::tiny());
    let (mut crawler, config) = attack(&scenario);
    let discovery = run_basic(&mut crawler, &config).unwrap();
    let t = config.school_size_estimate as usize;
    let guessed = discovery.guessed_students(t);
    let rec = recover_friend_lists(&mut crawler, &guessed).unwrap();

    // Constructed profiles for guessed *actual* students (evaluation
    // slice; the attacker would use all guessed users).
    let mut profiles = Vec::new();
    let mut link_inputs = Vec::new();
    for &u in &guessed {
        if !scenario.is_student(u) {
            continue;
        }
        let Some(year) = discovery.inferred_year(u) else { continue };
        let scraped = crawler.profile(u).unwrap();
        let friends = rec.friends_of(u).to_vec();
        let last_name = scenario.network.user(u).profile.last_name.to_string();
        profiles.push(construct_profile(
            &scraped,
            u,
            scenario.school,
            scenario.home_city,
            year,
            friends.clone(),
        ));
        link_inputs.push((u, last_name, scenario.home_city, friends));
    }
    assert!(profiles.len() > 30, "too few constructed profiles");

    // --- voter-record linking -----------------------------------------
    let roll = VoterRoll::build(&scenario.network, scenario.config.seed);
    assert!(roll.len() > 100, "roll too small: {}", roll.len());
    let (links, stats) = link_students(&scenario.network, &roll, link_inputs);
    assert_eq!(stats.students, profiles.len());
    // A sizable fraction resolves, and what resolves is (almost) always
    // the right address — unique-household links can only be wrong if a
    // same-surname family lives elsewhere in town.
    assert!(
        stats.pct_resolved() > 30.0,
        "only {:.0}% of students resolved to an address",
        stats.pct_resolved()
    );
    assert!(stats.precision() > 90.0, "address precision {:.0}%", stats.precision());
    // Friend-list confirmation happens for students with OSN parents in
    // their recovered lists.
    assert!(stats.friend_confirmed > 0, "no friend-confirmed links");
    for link in &links {
        if link.confidence == LinkConfidence::FriendListConfirmed {
            let actual = scenario.network.households().of(link.student).unwrap();
            assert_eq!(
                link.address.as_deref(),
                Some(actual.address.as_str()),
                "friend-confirmed link must be exact"
            );
        }
    }

    // --- spear-phishing channel ------------------------------------------
    let school_name = scenario.network.school(scenario.school).name.to_string();
    let net = scenario.network.clone();
    let stats = run_campaign(&mut crawler, &profiles, &school_name, |f| {
        Some(net.user(f).profile.full_name())
    })
    .unwrap();
    assert_eq!(stats.targets, profiles.len());
    // Minors registered as adults with public message buttons are
    // reachable; registered minors never are.
    assert!(stats.delivered > 0, "nobody reachable");
    assert!(stats.delivered < stats.targets, "registered minors must be unreachable");
    assert!(stats.personalized_with_friend > stats.targets / 2);
    // Every delivery must have gone to a registered adult.
    // (Re-check via ground truth: registered minors' message buttons are
    // hard-capped off, so the platform cannot have accepted them.)
    for p in &profiles {
        if scenario.network.user(p.user).is_registered_minor(scenario.network.today) {
            assert!(!p.message_reachable, "minor {} had message button", p.user);
        }
    }

    // --- exposure distribution ------------------------------------------
    let mut dist = ExposureDistribution::default();
    for (profile, link) in profiles.iter().zip(&links) {
        dist.add(&exposure_of(profile, Some(link)));
    }
    assert_eq!(dist.total(), profiles.len());
    // Everyone leaks at least school+grade; some leak everything.
    assert_eq!(dist.at_least(1), profiles.len());
    assert!(dist.at_least(4) > 0, "no high-exposure students found");
}
