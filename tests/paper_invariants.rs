//! Integration-level checks of the paper's load-bearing claims, run
//! against the full stack (generator → platform → crawler → inference).

use hs_profiler::core::{run_basic, AttackConfig, GroundTruth};
use hs_profiler::crawler::{OsnAccess, ParallelCrawler};
use hs_profiler::http::DirectExchange;
use hs_profiler::platform::{Platform, PlatformConfig};
use hs_profiler::policy::{facebook_matrix, googleplus_matrix, FacebookPolicy, InfoRow};
use hs_profiler::synth::{generate, Scenario, ScenarioConfig};
use std::sync::Arc;

fn attack(scenario: &Scenario, accounts: usize) -> (ParallelCrawler<DirectExchange>, AttackConfig) {
    let platform = Platform::new(
        Arc::new(scenario.network.clone()),
        Arc::new(FacebookPolicy::new()),
        PlatformConfig::default(),
    );
    let handler = platform.into_handler();
    let exchanges = (0..accounts).map(|_| DirectExchange::new(handler.clone())).collect();
    let crawler = ParallelCrawler::new(exchanges, "inv").unwrap();
    let config = AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    );
    (crawler, config)
}

/// Table 1's checkmark pattern, regenerated from the policy engine.
#[test]
fn table1_checkmarks_match_paper() {
    let m = facebook_matrix();
    // (row, [def-minor, def-adult, worst-minor, worst-adult])
    let expected = [
        (InfoRow::NameGenderNetworksPhoto, [true, true, true, true]),
        (InfoRow::HighSchool, [false, true, false, true]),
        (InfoRow::Relationship, [false, true, false, true]),
        (InfoRow::InterestedIn, [false, true, false, true]),
        (InfoRow::Birthday, [false, false, false, true]),
        (InfoRow::Hometown, [false, true, false, true]),
        (InfoRow::CurrentCity, [false, true, false, true]),
        (InfoRow::FriendList, [false, true, false, true]),
        (InfoRow::Photos, [false, true, false, true]),
        (InfoRow::ContactInfo, [false, false, false, true]),
        (InfoRow::PublicSearch, [false, true, false, true]),
    ];
    for (row, cells) in expected {
        for (col, want) in cells.into_iter().enumerate() {
            assert_eq!(m.cell(row, col), want, "{row:?} column {col}");
        }
    }
}

/// Table 6: Google+ protects minors by defaults, not caps.
#[test]
fn table6_gplus_has_no_hard_cap() {
    let m = googleplus_matrix();
    const WORST_MINOR: usize = 2;
    for row in [InfoRow::HighSchool, InfoRow::Birthday, InfoRow::ContactInfo, InfoRow::Photos] {
        assert!(m.cell(row, WORST_MINOR), "{row:?} should leak for a worst-case G+ minor");
    }
    // But search still excludes registered minors.
    assert!(!m.cell(InfoRow::PublicSearch, WORST_MINOR));
}

/// §3.1: everything the crawler ever receives about a registered minor
/// is minimal — verified over every registered-minor student page.
#[test]
fn crawler_never_sees_nonminimal_registered_minor() {
    let scenario = generate(&ScenarioConfig::tiny());
    let (mut crawler, _) = attack(&scenario, 1);
    for u in scenario.registered_minor_students() {
        let p = crawler.profile(u).unwrap();
        assert!(p.is_minimal(), "registered minor {u} leaked: {p:?}");
        assert!(crawler.friends(u).unwrap().is_none());
    }
}

/// §4.1: the core set really is dominated by minors who lied about
/// their age — the causal mechanism of the whole paper.
#[test]
fn core_is_mostly_lying_minors() {
    let scenario = generate(&ScenarioConfig::tiny());
    let (mut crawler, config) = attack(&scenario, 2);
    let d = run_basic(&mut crawler, &config).unwrap();
    assert!(!d.core.is_empty());
    let today = scenario.network.today;
    let student_cores = d.core.iter().filter(|c| scenario.is_student(c.id)).count();
    let lying_cores = d
        .core
        .iter()
        .filter(|c| scenario.network.user(c.id).is_minor_registered_as_adult(today))
        .count();
    // Every student core must be a registered adult (search excludes
    // registered minors); most of those are lying minors rather than
    // genuinely-18 seniors.
    for c in &d.core {
        assert!(!scenario.network.user(c.id).is_registered_minor(today));
    }
    assert!(
        lying_cores * 2 >= student_cores,
        "lying {lying_cores} of {student_cores} student cores"
    );
}

/// §4.1 step 4: reverse-lookup counts computed by the attacker agree
/// with ground truth restricted to the core (G_i(u) ⊆ F(u)).
#[test]
fn reverse_lookup_counts_are_consistent_with_ground_truth() {
    let scenario = generate(&ScenarioConfig::tiny());
    let (mut crawler, config) = attack(&scenario, 2);
    let d = run_basic(&mut crawler, &config).unwrap();
    for cand in d.ranked.iter().take(200) {
        let total: u32 = cand.core_friends_by_class.iter().sum();
        let actual =
            d.core.iter().filter(|c| scenario.network.are_friends(c.id, cand.id)).count() as u32;
        assert_eq!(total, actual, "candidate {}", cand.id);
    }
}

/// The roster ground truth is internally consistent with the scenario's
/// summary accessors.
#[test]
fn ground_truth_partitions_students() {
    let scenario = generate(&ScenarioConfig::tiny());
    let truth = GroundTruth::from_scenario(&scenario);
    let minors = scenario.registered_minor_students().len();
    let lying = scenario.lying_minor_students().len();
    assert_eq!(truth.len(), scenario.roster().len());
    // Registered minors + registered adults (lying or true 18+) = all.
    assert!(minors + lying <= truth.len());
    for &u in truth.students() {
        assert!(truth.grad_year(u).is_some());
    }
}
