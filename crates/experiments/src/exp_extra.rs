//! Extension experiments: hidden-link inference, ablations, summaries,
//! the tiny metro city and the crash-only attacker.

use crate::ctx::Ctx;
use crate::report::ExperimentReport;
use crate::runner::{full_attack, Lab};
use crate::tablefmt::{f1, Table};
use hsp_core::{evaluate, evaluate_links, recover_friend_lists, run_enhanced, EnhanceOptions};
use serde_json::json;

/// §6.1 extension: Jaccard inference of hidden friendships between
/// registered minors, evaluated against ground truth.
pub fn jaccard(ctx: &mut Ctx) -> ExperimentReport {
    let sr = ctx.school_mut("HS1");
    let t = sr.run.config.school_size_estimate as usize;
    let guessed = sr.run.enhanced.guessed_students(t);
    let rec = recover_friend_lists(sr.run.access.as_mut(), &guessed).expect("reverse lookup");
    let network = &sr.lab.scenario.network;
    let mut table = Table::new(&[
        "jaccard threshold",
        "predicted links",
        "true positives",
        "precision",
        "recall",
        "actual hidden links",
    ]);
    let mut points = Vec::new();
    for threshold in [0.02, 0.05, 0.10, 0.15, 0.20, 0.30] {
        let eval = evaluate_links(&rec, threshold, |a, b| network.are_friends(a, b));
        table.row(&[
            format!("{threshold:.2}"),
            eval.predicted.to_string(),
            eval.true_positives.to_string(),
            f1(eval.precision * 100.0),
            f1(eval.recall * 100.0),
            eval.actual_links.to_string(),
        ]);
        points.push(serde_json::to_value(eval).expect("serializable"));
    }
    let text = format!(
        "Hidden-list users in guessed set: {} (avg recovered list {:.1} friends)\n{}",
        rec.recovered.len(),
        rec.avg_recovered_len(),
        table.render()
    );
    ExperimentReport::new(
        "jaccard",
        "Inferring hidden friendships between registered minors (§6.1 extension)",
        text,
        json!({ "hidden_users": rec.recovered.len(), "points": points }),
    )
}

/// Ablation A: how the attack degrades as fewer children lie about
/// their age — the causal core of the paper's thesis.
pub fn ablation_lying(ctx: &mut Ctx) -> ExperimentReport {
    let mut table = Table::new(&[
        "p(lie when underage)",
        "minors registered as adults",
        "core users",
        "% students found @ t=size",
    ]);
    let mut points = Vec::new();
    for p_lie in [0.0, 0.2, 0.4, 0.6, 0.8, 0.95] {
        // Average over three generated worlds per point: a single small
        // world's core draw is noisy.
        let mut lying_sum = 0usize;
        let mut core_sum = 0usize;
        let mut pct_sum = 0.0;
        const REPS: u64 = 3;
        for rep in 0..REPS {
            let mut cfg = Ctx::config_for("HS1");
            cfg.name = format!("HS1-lie{p_lie}-r{rep}");
            cfg.seed = cfg.seed.wrapping_add(rep.wrapping_mul(0x9e37_79b9));
            cfg.lying.p_lie_when_underage = p_lie;
            let mut lab = Lab::facebook(&cfg);
            let run = full_attack(&mut lab, ctx.tcp);
            let truth = lab.ground_truth();
            let t = run.config.school_size_estimate as usize;
            let guessed = run.enhanced.guessed_students(t);
            let point =
                evaluate(t, &guessed, |u| run.enhanced.inferred_year(u, &run.config), &truth);
            lying_sum += lab.scenario.lying_minor_students().len();
            core_sum += run.enhanced.extended_core.len();
            pct_sum += point.pct_found(truth.len());
        }
        let reps = REPS as f64;
        table.row(&[
            format!("{p_lie:.2}"),
            f1(lying_sum as f64 / reps),
            f1(core_sum as f64 / reps),
            f1(pct_sum / reps),
        ]);
        points.push(json!({
            "p_lie": p_lie,
            "lying_minors_mean": lying_sum as f64 / reps,
            "extended_core_mean": core_sum as f64 / reps,
            "pct_found_mean": pct_sum / reps,
        }));
    }
    ExperimentReport::new(
        "ablation-lying",
        "Ablation: attack success vs the age-lying rate (HS1 world)",
        table.render(),
        json!({ "points": points }),
    )
}

/// Ablation B: the enhanced pass's ε.
pub fn ablation_epsilon(ctx: &mut Ctx) -> ExperimentReport {
    let truth = ctx.school("HS1").lab.ground_truth();
    let mut table = Table::new(&["epsilon", "profiles fetched", "ext. core", "% found @ t=400"]);
    let mut points = Vec::new();
    for eps in [0.0, 0.5, 1.0, 2.0] {
        let sr = ctx.school_mut("HS1");
        let mut config = sr.run.config.clone();
        config.epsilon = eps;
        let mut discovery = sr.run.discovery.clone();
        discovery.config = config.clone();
        let before = sr.run.access.effort();
        let enhanced = run_enhanced(
            sr.run.access.as_mut(),
            &discovery,
            &EnhanceOptions {
                t: 400,
                filtering: true,
                enhance: true,
                school_city: sr.lab.scenario.home_city,
            },
        )
        .expect("enhanced");
        let fetched = sr.run.access.effort().since(&before).profile_requests;
        let guessed = enhanced.guessed_students(400);
        let point = evaluate(400, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
        table.row(&[
            format!("{eps:.1}"),
            fetched.to_string(),
            enhanced.extended_core.len().to_string(),
            f1(point.pct_found(truth.len())),
        ]);
        points.push(json!({
            "epsilon": eps,
            "new_profile_fetches": fetched,
            "extended_core": enhanced.extended_core.len(),
            "pct_found": point.pct_found(truth.len()),
        }));
    }
    ExperimentReport::new(
        "ablation-epsilon",
        "Ablation: enhanced-methodology ε (HS1, t=400; fetches are incremental over cache)",
        table.render(),
        json!({ "points": points }),
    )
}

/// Ablation C: which §4.4 filter rules fire.
pub fn ablation_filters(ctx: &mut Ctx) -> ExperimentReport {
    let sr = ctx.school_mut("HS1");
    let t = sr.run.config.school_size_estimate as usize;
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
    let mut counts = std::collections::BTreeMap::new();
    let mut former_hits = 0usize;
    for (u, rule) in &enhanced.filtered_out {
        *counts.entry(format!("{rule:?}")).or_insert(0usize) += 1;
        if matches!(
            sr.lab.scenario.network.user(*u).role,
            hsp_graph::Role::FormerStudent { .. } | hsp_graph::Role::Alumnus { .. }
        ) {
            former_hits += 1;
        }
    }
    let mut table = Table::new(&["filter rule", "candidates removed"]);
    for (rule, n) in &counts {
        table.row(&[rule.clone(), n.to_string()]);
    }
    let text = format!(
        "{}\nOf {} filtered candidates, {} were truly former students/alumni (ground truth).\n",
        table.render(),
        enhanced.filtered_out.len(),
        former_hits
    );
    ExperimentReport::new(
        "ablation-filters",
        "Ablation: §4.4 filter-rule contributions (HS1)",
        text,
        json!({ "counts": counts, "true_former": former_hits, "total": enhanced.filtered_out.len() }),
    )
}

/// Ablation D: number of attacker accounts vs seed/core yield (HS2).
pub fn ablation_accounts(ctx: &mut Ctx) -> ExperimentReport {
    let mut table = Table::new(&["accounts", "seeds", "core users", "candidates"]);
    let mut points = Vec::new();
    for accounts in [1usize, 2, 4, 8] {
        let mut lab = Lab::facebook(&Ctx::config_for("HS2"));
        lab.serve_if(ctx.tcp);
        let mut access = lab.crawler(accounts, "acct").tcp(ctx.tcp).boxed();
        let config = lab.attack_config();
        let discovery = hsp_core::run_basic(access.as_mut(), &config).expect("basic");
        table.row(&[
            accounts.to_string(),
            discovery.seeds.len().to_string(),
            discovery.core.len().to_string(),
            discovery.candidate_count().to_string(),
        ]);
        points.push(json!({
            "accounts": accounts,
            "seeds": discovery.seeds.len(),
            "core": discovery.core.len(),
            "candidates": discovery.candidate_count(),
        }));
    }
    ExperimentReport::new(
        "ablation-accounts",
        "Ablation: fake-account count vs seed/core yield (HS2)",
        table.render(),
        json!({ "points": points }),
    )
}

/// §4.3 extension: interaction-weighted ranking (wall-post evidence).
pub fn interaction(ctx: &mut Ctx) -> ExperimentReport {
    let truth = ctx.school("HS1").lab.ground_truth();
    let sr = ctx.school_mut("HS1");
    let config = sr.run.config.clone();
    let core = sr.run.enhanced.extended_core.clone();
    let mut table =
        Table::new(&["ranking", "% found @ t=300", "% found @ t=size", "% correct year"]);
    let mut rows = Vec::new();
    for (label, bonus) in
        [("plain (paper)", 0.0), ("wall-post bonus 1.0", 1.0), ("wall-post bonus 3.0", 3.0)]
    {
        let ranked = hsp_core::rank_candidates_weighted(
            sr.run.access.as_mut(),
            &config,
            &core,
            &hsp_core::InteractionWeights { wall_post_bonus: bonus },
        )
        .expect("weighted ranking");
        let eval_at = |t: usize| {
            let mut guessed: Vec<hsp_graph::UserId> = ranked.iter().take(t).map(|c| c.id).collect();
            guessed.extend(core.iter().map(|c| c.id));
            guessed.sort_unstable();
            guessed.dedup();
            evaluate(
                t,
                &guessed,
                |u| ranked.iter().find(|c| c.id == u).map(|c| c.inferred_grad_year(&config)),
                &truth,
            )
        };
        let p300 = eval_at(300);
        let psize = eval_at(config.school_size_estimate as usize);
        table.row(&[
            label.into(),
            f1(p300.pct_found(truth.len())),
            f1(psize.pct_found(truth.len())),
            f1(psize.pct_correct_year()),
        ]);
        rows.push(json!({
            "ranking": label,
            "pct_found_300": p300.pct_found(truth.len()),
            "pct_found_size": psize.pct_found(truth.len()),
            "pct_correct_year": psize.pct_correct_year(),
        }));
    }
    ExperimentReport::new(
        "interaction",
        "§4.3 extension: interaction-weighted ranking via visible wall posters (HS1)",
        table.render(),
        json!({ "rows": rows }),
    )
}

/// §4.1's birth-year estimation ("the third party can also estimate
/// birth year from the graduation year"), scored against ground truth.
pub fn birthyear(ctx: &mut Ctx) -> ExperimentReport {
    let sr = ctx.school_mut("HS1");
    let t = sr.run.config.school_size_estimate as usize;
    let guessed = sr.run.enhanced.guessed_students(t);
    let net = &sr.lab.scenario.network;
    let mut exact = 0usize;
    let mut within_one = 0usize;
    let mut n = 0usize;
    for &u in &guessed {
        if !sr.lab.scenario.is_student(u) {
            continue;
        }
        let Some(year) = sr.run.enhanced.inferred_year(u, &sr.run.config) else {
            continue;
        };
        let est = year - 18;
        let actual = net.user(u).true_birth_date.year();
        n += 1;
        if est == actual {
            exact += 1;
        }
        if (est - actual).abs() <= 1 {
            within_one += 1;
        }
    }
    let mut table = Table::new(&["metric", "value"]);
    table.row(&["students with estimated birth year".into(), n.to_string()]);
    table.row(&[
        "exact year".into(),
        format!("{} ({:.0}%)", exact, 100.0 * exact as f64 / n.max(1) as f64),
    ]);
    table.row(&[
        "within +/- 1 year".into(),
        format!("{} ({:.0}%)", within_one, 100.0 * within_one as f64 / n.max(1) as f64),
    ]);
    ExperimentReport::new(
        "birthyear",
        "§4.1: accuracy of birth-year estimation from inferred graduation year (HS1)",
        table.render(),
        json!({ "n": n, "exact": exact, "within_one": within_one }),
    )
}

/// §3.1's verification experiment: using the full ground truth for HS1,
/// confirm that neither the Find-Friends portal nor graph search ever
/// returns a registered minor, and characterize who *is* returned
/// ("the vast majority of the results being alumni of the high school").
pub fn verify_search(ctx: &mut Ctx) -> ExperimentReport {
    let sr = ctx.school_mut("HS1");
    let school = sr.lab.scenario.school;
    // Use many accounts so the union approaches the full searchable pool.
    let mut access = sr.lab.crawler(8, "verify").boxed();
    let seeds = access.collect_seeds(school).expect("seeds");
    let net = &sr.lab.scenario.network;
    let today = net.today;
    let mut registered_minors = 0usize;
    let mut alumni = 0usize;
    let mut current_students = 0usize;
    let mut formers = 0usize;
    let mut others = 0usize;
    for &u in &seeds {
        if net.user(u).is_registered_minor(today) {
            registered_minors += 1;
        }
        match net.user(u).role {
            hsp_graph::Role::Alumnus { .. } => alumni += 1,
            hsp_graph::Role::CurrentStudent { .. } => current_students += 1,
            hsp_graph::Role::FormerStudent { .. } => formers += 1,
            _ => others += 1,
        }
    }
    // Graph-search composition (§3.1: "current students at HS1 who live
    // in city1"): also must return zero registered minors.
    let gs_minors = {
        let platform = &sr.lab.platform;
        let ids = {
            use hsp_http::{Exchange, Request};
            let handler = platform.into_handler();
            let mut ex = hsp_http::DirectExchange::new(handler);
            ex.exchange(Request::post_form("/signup", &[("user", "gsv"), ("pass", "x")])).unwrap();
            ex.exchange(Request::post_form("/login", &[("user", "gsv"), ("pass", "x")])).unwrap();
            let resp = ex
                .exchange(Request::get(format!(
                    "/graph-search?school={school}&current=1&city={}",
                    sr.lab.scenario.home_city
                )))
                .unwrap();
            hsp_crawler::parse_listing(&resp.body_string()).0
        };
        ids.iter().filter(|&&u| net.user(u).is_registered_minor(today)).count()
    };
    assert_eq!(gs_minors, 0, "graph search returned a registered minor");

    let mut table = Table::new(&["category", "count", "% of results"]);
    let pct_of = |n: usize| f1(100.0 * n as f64 / seeds.len().max(1) as f64);
    table.row(&[
        "search results (8-account union)".into(),
        seeds.len().to_string(),
        "100.0".into(),
    ]);
    table.row(&[
        "registered minors".into(),
        registered_minors.to_string(),
        pct_of(registered_minors),
    ]);
    table.row(&["alumni".into(), alumni.to_string(), pct_of(alumni)]);
    table.row(&[
        "current students (all registered adults)".into(),
        current_students.to_string(),
        pct_of(current_students),
    ]);
    table.row(&["former students".into(), formers.to_string(), pct_of(formers)]);
    table.row(&["others".into(), others.to_string(), pct_of(others)]);
    assert_eq!(registered_minors, 0, "search returned a registered minor");
    let note = "Paper §3.1: \"Facebook does not return any registered minors when a \
                stranger searches with the Find Friends Portal\" — verified against \
                the full HS1 ground truth; and \"the vast majority of the results \
                [are] alumni\".\n";
    ExperimentReport::new(
        "verify-search",
        "§3.1 verification: school search never returns registered minors",
        format!("{note}{}", table.render()),
        json!({
            "results": seeds.len(),
            "registered_minors": registered_minors,
            "alumni": alumni,
            "current_students": current_students,
            "former_students": formers,
            "others": others,
        }),
    )
}

/// Metro-scale city-wide attack: every school in a shared-city world
/// crawled concurrently through its own [`ParallelCrawler`] accounts,
/// with per-school Table-2/4 analogues and the aggregate exposure. The
/// experiment registry runs the TINY metro config; the full 1.15M-user
/// city is attackbench's `metro_city` workload, which pins its 40
/// school digests and measures its build and attack.
///
/// [`ParallelCrawler`]: hsp_crawler::ParallelCrawler
pub fn metro(ctx: &mut Ctx) -> ExperimentReport {
    use crate::metro_lab::MetroLab;
    use hsp_synth::MetroConfig;
    // Fresh platforms per run (account registries are per platform);
    // the shared Ctx caches don't apply.
    let _ = ctx;
    const SEED: u64 = 0x3e7_a77a;
    let cfg = MetroConfig::tiny();
    let outcomes = MetroLab::facebook(&cfg, 2).city_attack(2, 2, SEED);
    // Same city, same per-school seeds, eight workers per school: every
    // per-school Table 4 must come out bit-identical.
    let eight = MetroLab::facebook(&cfg, 1).city_attack(8, 2, SEED);
    for (a, b) in outcomes.iter().zip(&eight) {
        assert_eq!(a.digest(), b.digest(), "school {:?} not worker-invariant", a.school);
    }
    let mut table = Table::new(&[
        "school",
        "roster",
        "seeds",
        "core",
        "candidates",
        "found",
        "% found",
        "% correct year",
        "requests",
    ]);
    let mut points = Vec::new();
    for o in &outcomes {
        table.row(&[
            format!("{}", o.school),
            o.roster.to_string(),
            o.seeds.to_string(),
            o.core.to_string(),
            o.candidates.to_string(),
            o.eval.found.to_string(),
            f1(o.eval.pct_found(o.roster)),
            f1(o.eval.pct_correct_year()),
            o.requests.to_string(),
        ]);
        points.push(json!({
            "school": format!("{}", o.school),
            "roster": o.roster,
            "seeds": o.seeds,
            "core": o.core,
            "candidates": o.candidates,
            "found": o.eval.found,
            "correct_year": o.eval.correct_year,
            "requests": o.requests,
            "digest": format!("{:016x}", o.digest()),
        }));
    }
    let exposure = MetroLab::exposure(&outcomes);
    let text = format!(
        "{}\nCity-wide exposure: {}/{} students identified ({:.1}%) across {} schools \
         in one concurrent crawl ({} requests). Worker counts 2 and 8 produced \
         bit-identical per-school results.\n",
        table.render(),
        exposure.students_found,
        exposure.students_total,
        exposure.pct_found(),
        exposure.schools,
        exposure.requests_total,
    );
    ExperimentReport::new(
        "metro",
        "Metro-scale city-wide concurrent attack (TINY metro world)",
        text,
        json!({
            "schools": exposure.schools,
            "students_total": exposure.students_total,
            "students_found": exposure.students_found,
            "pct_found": exposure.pct_found(),
            "requests_total": exposure.requests_total,
            "worker_invariant": true,
            "per_school": points,
        }),
    )
}

/// World summaries (sanity panel for the calibration targets).
pub fn summary(ctx: &mut Ctx) -> ExperimentReport {
    let mut text = String::new();
    let mut rows = Vec::new();
    for school in ["HS1", "HS2", "HS3"] {
        let sr = ctx.school(school);
        let s = sr.lab.scenario.summary();
        text.push_str(&format!("{s}\n"));
        rows.push(json!({
            "name": s.name,
            "total_users": s.total_users,
            "students_on_osn": s.students_on_osn,
            "lying_minor_students": s.lying_minor_students,
            "registered_minor_students": s.registered_minor_students,
            "former_students": s.former_students,
            "alumni": s.alumni,
        }));
    }
    ExperimentReport::new("summary", "Generated-world summaries", text, json!({ "worlds": rows }))
}

/// Crash-only attacker: a kill-point sweep over the journaled crawl,
/// each kill resumed against the *same still-running platform* and
/// gated on bit-identical convergence with an uninterrupted run —
/// outcome digest, effort ledger, and trace digest all equal. Kill
/// points are picked as fractions of the uninterrupted journal's
/// committed record count, plus one torn-tail kill (the frame is cut
/// mid-write), so the sweep tracks the world config instead of
/// hard-coding offsets. The process-kill variant lives in
/// `examples/crash.rs` / `scripts/crash.sh`: a child attacker aborts
/// itself with `std::process::abort` (SIGABRT) at the kill point and a
/// successor process resumes it. Only a full run (no `--smoke`) appends
/// to `BENCH_crash.json`.
pub fn crash_recovery(ctx: &mut Ctx) -> ExperimentReport {
    use crate::crash_lab::{baseline, killed_and_resumed};
    use hsp_crawler::{recover, KillPlan};
    // Fresh labs per trial (the trial shares one platform between the
    // killed run and its resume); the shared Ctx caches don't apply.
    let _ = ctx;
    const SEED: u64 = 0xC4A5;
    const WORKERS: usize = 2;
    const CHURN: f64 = 1.0;
    let cfg = Ctx::config_for("TINY");
    let dir = std::env::temp_dir().join("hsp-crash-recovery");
    std::fs::create_dir_all(&dir).expect("crash-recovery tmp dir");

    // Yardsticks: the un-journaled run the digests must converge to,
    // and a journaled-but-uninterrupted run for record count + cost.
    let bare = baseline(&cfg, SEED, WORKERS, CHURN, None);
    let journal_path = dir.join("baseline.journal");
    let journaled = baseline(&cfg, SEED, WORKERS, CHURN, Some(&journal_path));
    assert_eq!(bare.digest, journaled.digest, "journaling changed the outcome");
    assert_eq!(bare.effort, journaled.effort, "journaling changed the effort ledger");
    assert_eq!(bare.trace_digest, journaled.trace_digest, "journaling changed the trace");
    let committed = recover(&journal_path).expect("baseline journal readable").records.len() as u64;
    assert!(committed > 10, "journal too short for a meaningful sweep");

    let mut kills: Vec<(String, KillPlan)> = [0.05f64, 0.25, 0.50, 0.75, 0.95]
        .iter()
        .map(|f| {
            let at = ((committed as f64 * f) as u64).max(3);
            (format!("{:.0}%", f * 100.0), KillPlan::after(at))
        })
        .collect();
    kills.push(("50% torn".to_string(), KillPlan::torn((committed / 2).max(3), 7)));

    let mut table = Table::new(&[
        "kill point",
        "kill after",
        "recovered",
        "discarded",
        "torn B",
        "recovery us",
        "journal KB",
        "requests",
        "found",
        "bit-identical",
    ]);
    let mut points = Vec::new();
    for (label, kill) in kills {
        let path = dir.join(format!("kill-{}.journal", label.replace([' ', '%'], "_")));
        let trial = killed_and_resumed(&cfg, SEED, WORKERS, CHURN, kill, &path);
        assert!(!trial.completed_before_kill, "{label}: kill point never fired");
        assert_eq!(trial.resumes, 1, "{label}: expected exactly one restart");
        assert_eq!(trial.outcome.digest, bare.digest, "{label}: outcome digest drifted");
        assert_eq!(trial.outcome.effort, bare.effort, "{label}: effort ledger drifted");
        assert_eq!(trial.outcome.trace_digest, bare.trace_digest, "{label}: trace digest drifted");
        let identical = trial.outcome.digest == bare.digest
            && trial.outcome.effort == bare.effort
            && trial.outcome.trace_digest == bare.trace_digest;
        table.row(&[
            label.clone(),
            trial.kill_after.to_string(),
            trial.recovered_records.to_string(),
            trial.discarded_records.to_string(),
            trial.torn_bytes.to_string(),
            trial.recovery_us.to_string(),
            format!("{:.1}", trial.outcome.journal_bytes as f64 / 1024.0),
            trial.outcome.effort.total().to_string(),
            trial.outcome.found.to_string(),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        points.push(json!({
            "label": label,
            "kill_after_records": trial.kill_after,
            "recovered_records": trial.recovered_records,
            "discarded_records": trial.discarded_records,
            "torn_bytes": trial.torn_bytes,
            "recovery_us": trial.recovery_us,
            "journal_bytes": trial.outcome.journal_bytes,
            "found": trial.outcome.found,
            "total_requests": trial.outcome.effort.total(),
            "outcome_digest": format!("{:016x}", trial.outcome.digest),
            "trace_digest": format!("{:016x}", trial.outcome.trace_digest),
            "bit_identical": identical,
        }));
    }
    ExperimentReport::new(
        "crash-recovery",
        "Crash-only attacker: kill-point sweep, journal recovery, bit-identical resume \
         (TINY world, chaos faults + live churn)",
        table.render(),
        json!({
            "committed_records": committed,
            "baseline_journal_bytes": journaled.journal_bytes,
            "yardstick_outcome_digest": format!("{:016x}", bare.digest),
            "yardstick_trace_digest": format!("{:016x}", bare.trace_digest),
            "found": bare.found,
            "points": points,
        }),
    )
}
