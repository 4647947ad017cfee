//! Figure experiments: regenerate Figures 1–4.

use crate::asciiplot::Plot;
use crate::ctx::Ctx;
use crate::report::ExperimentReport;
use crate::runner::Lab;
use crate::tablefmt::{f1, Table};
use hsp_core::{
    evaluate, partial_estimate, run_basic, run_coppaless_heuristic, run_enhanced,
    score_minimal_set, CoppalessOptions, EnhanceOptions,
};
use hsp_policy::{FacebookPolicy, Policy};
use serde_json::json;
use std::sync::Arc;

/// Figure 1: HS1 enhanced+filtering — % found and % false positives
/// versus threshold t.
pub fn fig1(ctx: &mut Ctx) -> ExperimentReport {
    let truth = ctx.school("HS1").lab.ground_truth();
    let mut found_series = Vec::new();
    let mut fp_series = Vec::new();
    let mut table = Table::new(&["t", "% students found", "% false positives"]);
    let mut points_json = Vec::new();
    for t in (200..=500).step_by(25) {
        let sr = ctx.school_mut("HS1");
        let enhanced = run_enhanced(
            sr.run.access.as_mut(),
            &sr.run.discovery,
            &EnhanceOptions {
                t,
                filtering: true,
                enhance: true,
                school_city: sr.lab.scenario.home_city,
            },
        )
        .expect("enhanced");
        let guessed = enhanced.guessed_students(t);
        let point = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &sr.run.config), &truth);
        let pf = point.pct_found(truth.len());
        let pfp = point.pct_false_positives();
        found_series.push((t as f64, pf));
        fp_series.push((t as f64, pfp));
        if t % 50 == 0 {
            table.row(&[t.to_string(), f1(pf), f1(pfp)]);
        }
        points_json.push(json!({
            "t": t, "pct_found": pf, "pct_false_positives": pfp,
            "found": point.found, "false_positives": point.false_positives,
        }));
    }
    let plot = Plot::new("Figure 1: HS1, enhanced methodology with filtering", "top-t", "percent")
        .series("% students found", '*', found_series)
        .series("% false positives", 'o', fp_series);
    ExperimentReport::new(
        "fig1",
        "Overall performance of enhanced methodology for HS1",
        format!("{}\n{}", table.render(), plot.render()),
        json!({ "points": points_json, "roster": truth.len() }),
    )
}

/// Figure 2: HS2/HS3 with the §5.5 limited-ground-truth estimators.
pub fn fig2(ctx: &mut Ctx) -> ExperimentReport {
    let mut all_json = Vec::new();
    let mut text = String::new();
    let mut plot = Plot::new(
        "Figure 2: estimated performance for HS2 and HS3 (enhanced + filtering)",
        "top-t",
        "percent",
    );
    for (school, marker_found, marker_fp) in [("HS2", '*', 'o'), ("HS3", '#', 'x')] {
        // Second seed crawl with four *additional* accounts: the
        // held-out test users (claim current attendance, absent from the
        // first seed set).
        let (test_users, first_seeds) = {
            let sr = ctx.school_mut(school);
            let first_seeds: std::collections::HashSet<_> =
                sr.run.discovery.seeds.iter().copied().collect();
            let mut second = sr.lab.crawler(4, "second").boxed();
            let seeds2 = second.collect_seeds(sr.lab.scenario.school).expect("second crawl");
            let mut test_users = Vec::new();
            for &u in &seeds2 {
                if first_seeds.contains(&u) {
                    continue;
                }
                let p = second.profile(u).expect("profile");
                if p.claims_current_student(sr.lab.scenario.school, sr.run.config.senior_class_year)
                {
                    test_users.push(u);
                }
            }
            (test_users, first_seeds.len())
        };
        let sr = ctx.school_mut(school);
        let school_size = sr.lab.scenario.config.school_size as usize;
        let ext_core = sr.run.enhanced.extended_core.len();
        text.push_str(&format!(
            "{school}: {} test users from second crawl ({} first-crawl seeds); paper used {}.\n",
            test_users.len(),
            first_seeds,
            if school == "HS2" { 43 } else { 47 },
        ));
        let mut table = Table::new(&["t", "test found", "est % found", "est % FP"]);
        let mut found_pts = Vec::new();
        let mut fp_pts = Vec::new();
        let mut points_json = Vec::new();
        for t in (500..=2000).step_by(250) {
            let enhanced = run_enhanced(
                sr.run.access.as_mut(),
                &sr.run.discovery,
                &EnhanceOptions {
                    t,
                    filtering: true,
                    enhance: true,
                    school_city: sr.lab.scenario.home_city,
                },
            )
            .expect("enhanced");
            let guessed = enhanced.guessed_students(t);
            let z = test_users.iter().filter(|u| guessed.binary_search(u).is_ok()).count();
            let est = partial_estimate(t, z, test_users.len().max(1), ext_core, school_size);
            table.row(&[
                t.to_string(),
                format!("{z}/{}", test_users.len()),
                f1(est.est_pct_found),
                f1(est.est_pct_false_positives),
            ]);
            found_pts.push((t as f64, est.est_pct_found));
            fp_pts.push((t as f64, est.est_pct_false_positives));
            points_json.push(serde_json::to_value(est).expect("serializable"));
        }
        plot = plot.series(&format!("{school} % found"), marker_found, found_pts).series(
            &format!("{school} % FP"),
            marker_fp,
            fp_pts,
        );
        text.push_str(&table.render());
        text.push('\n');
        all_json.push(
            json!({ "school": school, "test_users": test_users.len(), "points": points_json }),
        );
    }
    text.push_str(&plot.render());
    ExperimentReport::new(
        "fig2",
        "Overall performance of enhanced methodology for HS2 and HS3 (§5.5 estimators)",
        text,
        json!({ "schools": all_json }),
    )
}

/// Figure 3: with-COPPA vs without-COPPA false positives against
/// minimal-profile students found (HS1).
pub fn fig3(ctx: &mut Ctx) -> ExperimentReport {
    // Ground-truth minimal-profile students (the paper's 148 of 325).
    let minimal_students: Vec<hsp_graph::UserId> = {
        let sr = ctx.school("HS1");
        let policy = FacebookPolicy::new();
        let mut v: Vec<_> = sr
            .lab
            .scenario
            .roster()
            .into_iter()
            .filter(|&u| policy.stranger_view(&sr.lab.scenario.network, u).is_minimal())
            .collect();
        v.sort_unstable();
        v
    };
    let mut text = format!(
        "HS1 minimal-profile ground-truth students: {} (paper: 148 of 325)\n\n",
        minimal_students.len()
    );
    let mut with_points = Vec::new();
    let mut table = Table::new(&["world", "param", "minimal found", "% found", "false positives"]);
    // --- with-COPPA: minimal-profile members of the top-t ---------------
    for t in [300usize, 400, 500] {
        let sr = ctx.school_mut("HS1");
        let guessed = sr.run.enhanced.guessed_students(t);
        let mut minimal_guessed = Vec::new();
        for &u in &guessed {
            let p = sr.run.access.profile(u).expect("profile");
            if p.is_minimal() {
                minimal_guessed.push(u);
            }
        }
        minimal_guessed.sort_unstable();
        let point = score_minimal_set(t, &minimal_guessed, &minimal_students);
        table.row(&[
            "with-COPPA".into(),
            format!("t={t}"),
            point.found.to_string(),
            f1(point.pct_found),
            point.false_positives.to_string(),
        ]);
        with_points.push(point);
    }
    // --- without-COPPA heuristic on the same data (paper §7.2) -----------
    let mut without_points = Vec::new();
    {
        let sr = ctx.school_mut("HS1");
        for n in [1u32, 2, 3] {
            let run = run_coppaless_heuristic(
                sr.run.access.as_mut(),
                &sr.run.config,
                &CoppalessOptions { alumni_years_back: 2, min_core_friends: n },
            )
            .expect("coppaless heuristic");
            let point = score_minimal_set(n as usize, &run.guessed, &minimal_students);
            table.row(&[
                "without-COPPA".into(),
                format!("n={n} ({} alumni cores)", run.core.len()),
                point.found.to_string(),
                f1(point.pct_found),
                point.false_positives.to_string(),
            ]);
            without_points.push(point);
        }
    }
    // --- extension: a truly regenerated COPPA-less world -----------------
    let mut regen_points = Vec::new();
    {
        let cfg = Ctx::config_for("HS1").without_coppa();
        let lab = Lab::facebook(&cfg);
        let config = lab.attack_config();
        let policy = FacebookPolicy::new();
        let mut regen_minimal: Vec<_> = lab
            .scenario
            .roster()
            .into_iter()
            .filter(|&u| policy.stranger_view(&lab.scenario.network, u).is_minimal())
            .collect();
        regen_minimal.sort_unstable();
        let mut access = lab.crawler(2, "regen").boxed();
        for n in [1u32, 2, 3] {
            let run = run_coppaless_heuristic(
                access.as_mut(),
                &config,
                &CoppalessOptions { alumni_years_back: 2, min_core_friends: n },
            )
            .expect("regen heuristic");
            let point = score_minimal_set(n as usize, &run.guessed, &regen_minimal);
            table.row(&[
                "without-COPPA (regenerated world)".into(),
                format!("n={n}"),
                point.found.to_string(),
                f1(point.pct_found),
                point.false_positives.to_string(),
            ]);
            regen_points.push(point);
        }
    }
    text.push_str(&table.render());
    let plot = Plot::new(
        "Figure 3: false positives (log) vs % of minimal-profile students found",
        "% students found",
        "false positives",
    )
    .log_y()
    .series(
        "with-COPPA",
        '*',
        with_points.iter().map(|p| (p.pct_found, p.false_positives.max(1) as f64)).collect(),
    )
    .series(
        "without-COPPA",
        'o',
        without_points.iter().map(|p| (p.pct_found, p.false_positives.max(1) as f64)).collect(),
    );
    text.push('\n');
    text.push_str(&plot.render());
    ExperimentReport::new(
        "fig3",
        "With-COPPA vs without-COPPA false positives (HS1)",
        text,
        json!({
            "minimal_students": minimal_students.len(),
            "with": with_points,
            "without": without_points,
            "without_regenerated": regen_points,
        }),
    )
}

/// Figure 4: % of HS1 students found with and without reverse lookup.
pub fn fig4(ctx: &mut Ctx) -> ExperimentReport {
    let (scenario, truth) = {
        let sr = ctx.school("HS1");
        (sr.lab.scenario.clone(), sr.lab.ground_truth())
    };
    let mut table = Table::new(&["t", "% found (with RL)", "% found (without RL)"]);
    let mut series_with = Vec::new();
    let mut series_without = Vec::new();
    let mut points_json = Vec::new();

    // Countermeasure lab: same world, reverse lookup disabled.
    let mut lab_without =
        Lab::from_scenario(scenario, Arc::new(FacebookPolicy::without_reverse_lookup()));
    lab_without.serve_if(ctx.tcp);
    let mut access_without = lab_without.crawler(2, "cm").tcp(ctx.tcp).boxed();
    let config = lab_without.attack_config();
    let discovery_without =
        run_basic(access_without.as_mut(), &config).expect("countermeasure basic");

    for t in (200..=500).step_by(50) {
        // With reverse lookup (standard pipeline, cached).
        let pct_with = {
            let sr = ctx.school_mut("HS1");
            let enhanced = run_enhanced(
                sr.run.access.as_mut(),
                &sr.run.discovery,
                &EnhanceOptions {
                    t,
                    filtering: true,
                    enhance: true,
                    school_city: sr.lab.scenario.home_city,
                },
            )
            .expect("enhanced");
            let guessed = enhanced.guessed_students(t);
            evaluate(t, &guessed, |u| enhanced.inferred_year(u, &sr.run.config), &truth)
                .pct_found(truth.len())
        };
        // Without reverse lookup.
        let pct_without = {
            let enhanced = run_enhanced(
                access_without.as_mut(),
                &discovery_without,
                &EnhanceOptions {
                    t,
                    filtering: true,
                    enhance: true,
                    school_city: lab_without.scenario.home_city,
                },
            )
            .expect("countermeasure enhanced");
            let guessed = enhanced.guessed_students(t);
            evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth)
                .pct_found(truth.len())
        };
        table.row(&[t.to_string(), f1(pct_with), f1(pct_without)]);
        series_with.push((t as f64, pct_with));
        series_without.push((t as f64, pct_without));
        points_json.push(json!({ "t": t, "with": pct_with, "without": pct_without }));
    }
    let plot = Plot::new(
        "Figure 4: % of HS1 students found, with vs without reverse lookup",
        "top-t",
        "% found",
    )
    .series("with reverse lookup", '*', series_with)
    .series("without reverse lookup", 'o', series_without);
    ExperimentReport::new(
        "fig4",
        "Countermeasure: disabling reverse lookup (paper: top-500 drops 92% → 33%)",
        format!("{}\n{}", table.render(), plot.render()),
        json!({ "points": points_json }),
    )
}
