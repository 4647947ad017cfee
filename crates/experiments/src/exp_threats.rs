//! Extension experiments: the §2 threat chain, the Google+ variant of
//! the attack (Appendix A), and the §8 countermeasure design space.

use crate::ctx::Ctx;
use crate::report::ExperimentReport;
use crate::runner::{full_attack, Lab};
use crate::tablefmt::{f1, Table};
use hsp_core::{construct_profile, evaluate, recover_friend_lists, GroundTruth};
use hsp_policy::{
    AgeConsistencySearchPolicy, FacebookPolicy, GooglePlusPolicy, Policy,
    YoungAdultFriendListPolicy,
};
use hsp_threats::{exposure_of, link_students, run_campaign, ExposureDistribution, VoterRoll};
use serde_json::json;
use std::sync::Arc;

/// §2 threat chain on HS1: record linking, phishing channel, exposure.
pub fn threats(ctx: &mut Ctx) -> ExperimentReport {
    let sr = ctx.school_mut("HS1");
    let t = sr.run.config.school_size_estimate as usize;
    let guessed = sr.run.enhanced.guessed_students(t);
    let rec = recover_friend_lists(sr.run.access.as_mut(), &guessed).expect("reverse lookup");

    // Build the broker's deliverable for every guessed user the attack
    // classified (attackers don't know who is a true student; evaluation
    // below separates them).
    let mut profiles = Vec::new();
    let mut link_inputs = Vec::new();
    let mut true_students = 0usize;
    for &u in &guessed {
        let Some(year) = sr.run.enhanced.inferred_year(u, &sr.run.config) else {
            continue;
        };
        let scraped = sr.run.access.profile(u).expect("profile");
        let friends = rec.friends_of(u).to_vec();
        // The attacker reads the last name off the scraped page.
        let last_name = scraped.name.split_whitespace().last().unwrap_or_default().to_string();
        if sr.lab.scenario.is_student(u) {
            true_students += 1;
        }
        profiles.push(construct_profile(
            &scraped,
            u,
            sr.lab.scenario.school,
            sr.lab.scenario.home_city,
            year,
            friends.clone(),
        ));
        link_inputs.push((u, last_name, sr.lab.scenario.home_city, friends));
    }

    // --- voter-record linking -------------------------------------------
    let roll = VoterRoll::build(&sr.lab.scenario.network, sr.lab.scenario.config.seed);
    let (links, stats) = link_students(&sr.lab.scenario.network, &roll, link_inputs);

    // --- phishing channel --------------------------------------------------
    let school_name = sr.lab.scenario.network.school(sr.lab.scenario.school).name.to_string();
    let names: std::collections::HashMap<_, _> =
        sr.lab.scenario.network.users().map(|u| (u.id, u.profile.full_name())).collect();
    let campaign =
        run_campaign(sr.run.access.as_mut(), &profiles, &school_name, |f| names.get(&f).cloned())
            .expect("campaign");

    // --- exposure ---------------------------------------------------------
    let mut dist = ExposureDistribution::default();
    for (p, l) in profiles.iter().zip(&links) {
        dist.add(&exposure_of(p, Some(l)));
    }

    let mut table = Table::new(&["threat metric", "value"]);
    table.row(&["guessed users profiled".into(), profiles.len().to_string()]);
    table.row(&["  of which true students".into(), true_students.to_string()]);
    table.row(&["voter roll size".into(), roll.len().to_string()]);
    table.row(&[
        "addresses resolved".into(),
        format!("{} ({:.0}% of profiled)", stats.resolved_total, stats.pct_resolved()),
    ]);
    table.row(&["  via friend-list confirmation".into(), stats.friend_confirmed.to_string()]);
    table.row(&["  via unique household".into(), stats.unique_household.to_string()]);
    table.row(&[
        "  ambiguous / no candidates".into(),
        format!("{} / {}", stats.ambiguous, stats.no_candidates),
    ]);
    table.row(&["address precision".into(), format!("{:.0}%", stats.precision())]);
    table.row(&[
        "phishing lures delivered".into(),
        format!(
            "{} of {} ({:.0}%)",
            campaign.delivered,
            campaign.targets,
            campaign.pct_delivered()
        ),
    ]);
    table.row(&[
        "lures personalized with a friend's name".into(),
        campaign.personalized_with_friend.to_string(),
    ]);
    table.row(&[
        "exposure >= 4 of 5 components".into(),
        format!("{} of {}", dist.at_least(4), dist.total()),
    ]);
    table.row(&["exposure distribution 0..5".into(), format!("{:?}", dist.counts)]);
    ExperimentReport::new(
        "threats",
        "§2 consequential threats quantified (HS1): record linking, phishing, exposure",
        table.render(),
        json!({
            "profiled": profiles.len(),
            "true_students": true_students,
            "link_stats": stats,
            "campaign": campaign,
            "exposure_counts": dist.counts,
        }),
    )
}

/// Appendix A: the same attack against the Google+ policy engine.
pub fn gplus_attack(ctx: &mut Ctx) -> ExperimentReport {
    let scenario = ctx.school("HS1").lab.scenario.clone();
    let truth = GroundTruth::from_scenario(&scenario);
    let mut table = Table::new(&[
        "platform",
        "core",
        "candidates",
        "% found @ t=size",
        "% FP",
        "reg. minors leaking non-minimal pages",
    ]);
    let mut rows = Vec::new();
    for (label, policy) in [
        ("facebook", Arc::new(FacebookPolicy::new()) as Arc<dyn Policy>),
        ("googleplus", Arc::new(GooglePlusPolicy::new())),
    ] {
        let minors_leaking = scenario
            .registered_minor_students()
            .into_iter()
            .filter(|&u| !policy.stranger_view(&scenario.network, u).is_minimal())
            .count();
        let mut lab = Lab::from_scenario(scenario.clone(), policy);
        let run = full_attack(&mut lab, ctx.tcp);
        let t = run.config.school_size_estimate as usize;
        let guessed = run.enhanced.guessed_students(t);
        let point = evaluate(t, &guessed, |u| run.enhanced.inferred_year(u, &run.config), &truth);
        table.row(&[
            label.into(),
            run.enhanced.extended_core.len().to_string(),
            run.discovery.candidate_count().to_string(),
            f1(point.pct_found(truth.len())),
            f1(point.pct_false_positives()),
            minors_leaking.to_string(),
        ]);
        rows.push(json!({
            "platform": label,
            "core": run.enhanced.extended_core.len(),
            "candidates": run.discovery.candidate_count(),
            "pct_found": point.pct_found(truth.len()),
            "pct_fp": point.pct_false_positives(),
            "minors_leaking": minors_leaking,
        }));
    }
    // The circles-native crawl: cores' outgoing+incoming circle lists
    // instead of symmetric friend lists (Appendix A's asymmetric links).
    {
        let mut lab = Lab::from_scenario(scenario.clone(), Arc::new(GooglePlusPolicy::new()));
        lab.serve_if(ctx.tcp);
        let mut access = lab.crawler(2, "gpc").tcp(ctx.tcp).boxed();
        let config = lab.attack_config();
        let d = hsp_core::run_basic_circles(access.as_mut(), &config).expect("circles attack");
        let t = config.school_size_estimate as usize;
        let guessed = d.guessed_students(t);
        let point = evaluate(t, &guessed, |u| d.inferred_year(u), &truth);
        table.row(&[
            "googleplus (circles crawl)".into(),
            d.core.len().to_string(),
            d.candidate_count().to_string(),
            f1(point.pct_found(truth.len())),
            f1(point.pct_false_positives()),
            "-".into(),
        ]);
        rows.push(json!({
            "platform": "googleplus-circles",
            "core": d.core.len(),
            "candidates": d.candidate_count(),
            "pct_found": point.pct_found(truth.len()),
            "pct_fp": point.pct_false_positives(),
        }));
    }
    let note = "Same world, two policy engines. G+ lacks Facebook's hard cap, so any \
                registered minor with permissive settings leaks a non-minimal page; the \
                search-exclusion rule is the same, so the attack itself performs \
                comparably (the paper's Appendix A observation).\n";
    ExperimentReport::new(
        "gplus",
        "Appendix A: the attack against the Google+ policy engine",
        format!("{note}{}", table.render()),
        json!({ "rows": rows }),
    )
}

/// §8 design space: four countermeasures on the same HS1 world.
pub fn countermeasures(ctx: &mut Ctx) -> ExperimentReport {
    let scenario = ctx.school("HS1").lab.scenario.clone();
    let truth = GroundTruth::from_scenario(&scenario);
    let fb = || Arc::new(FacebookPolicy::new()) as Arc<dyn Policy>;
    let variants: Vec<(&str, Arc<dyn Policy>)> = vec![
        ("status quo", fb()),
        ("disable reverse lookup (§8)", Arc::new(FacebookPolicy::without_reverse_lookup())),
        (
            "screen self-identified minors from search",
            Arc::new(AgeConsistencySearchPolicy::new(fb())),
        ),
        (
            "hide friend lists of registered <21s",
            Arc::new(YoungAdultFriendListPolicy::new(fb(), 21)),
        ),
        (
            "both: screening + <21 friend-list cap",
            Arc::new(YoungAdultFriendListPolicy::new(
                Arc::new(AgeConsistencySearchPolicy::new(fb())),
                21,
            )),
        ),
    ];
    let mut table =
        Table::new(&["countermeasure", "core", "candidates", "% found @ t=size", "% FP"]);
    let mut rows = Vec::new();
    for (label, policy) in variants {
        let mut lab = Lab::from_scenario(scenario.clone(), policy);
        let run = full_attack(&mut lab, ctx.tcp);
        let t = run.config.school_size_estimate as usize;
        let guessed = run.enhanced.guessed_students(t);
        let point = evaluate(t, &guessed, |u| run.enhanced.inferred_year(u, &run.config), &truth);
        table.row(&[
            label.into(),
            run.enhanced.extended_core.len().to_string(),
            run.discovery.candidate_count().to_string(),
            f1(point.pct_found(truth.len())),
            f1(point.pct_false_positives()),
        ]);
        rows.push(json!({
            "countermeasure": label,
            "core": run.enhanced.extended_core.len(),
            "candidates": run.discovery.candidate_count(),
            "pct_found": point.pct_found(truth.len()),
            "pct_fp": point.pct_false_positives(),
        }));
    }
    ExperimentReport::new(
        "countermeasures",
        "§8 extension: a small countermeasure design space (HS1 world)",
        table.render(),
        json!({ "rows": rows }),
    )
}
