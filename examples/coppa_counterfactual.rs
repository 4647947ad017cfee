//! COPPA counterfactual (paper §7): compare the attacker's yield in the
//! current world (where under-13s lied at sign-up and are now "minors
//! registered as adults") against a world without the age restriction
//! (everyone registered truthfully).
//!
//! The paper's headline irony: **with** COPPA the attacker finds ~64 %
//! of the minimal-profile students with ~70 false positives; **without**
//! COPPA a comparable yield costs ~4,480 false positives — the law's age
//! gate indirectly made minors easier to find.
//!
//! ```sh
//! cargo run --release --example coppa_counterfactual [-- --full]
//! ```

use hs_profiler::core::{run_coppaless_heuristic, score_minimal_set, CoppalessOptions};
use hs_profiler::experiments::{full_attack, Lab};
use hs_profiler::policy::{FacebookPolicy, Policy};
use hs_profiler::synth::ScenarioConfig;

fn minimal_students(lab: &Lab) -> Vec<hs_profiler::graph::UserId> {
    let policy = FacebookPolicy::new();
    let mut v: Vec<_> = lab
        .scenario
        .roster()
        .into_iter()
        .filter(|&u| policy.stranger_view(&lab.scenario.network, u).is_minimal())
        .collect();
    v.sort_unstable();
    v
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let cfg = if full { ScenarioConfig::hs1() } else { ScenarioConfig::tiny() };

    // ---- the current world (with COPPA, children lied) -----------------
    let mut lab = Lab::facebook(&cfg);
    let mut run = full_attack(&mut lab, false);
    let minimal = minimal_students(&lab);
    println!(
        "with-COPPA world: {} students on the OSN, {} with minimal public profiles",
        lab.scenario.roster().len(),
        minimal.len()
    );
    let t = run.config.school_size_estimate as usize;
    let guessed = run.enhanced.guessed_students(t);
    let mut minimal_guessed = Vec::new();
    for &u in &guessed {
        if run.access.profile(u).expect("profile").is_minimal() {
            minimal_guessed.push(u);
        }
    }
    minimal_guessed.sort_unstable();
    let with = score_minimal_set(t, &minimal_guessed, &minimal);
    println!(
        "  attack yield: {} of {} minimal-profile students ({:.0}%), {} false positives",
        with.found,
        minimal.len(),
        with.pct_found,
        with.false_positives
    );

    // ---- the counterfactual world (no age gate, truthful sign-ups) ------
    let cl_cfg = cfg.without_coppa();
    let cl_lab = Lab::facebook(&cl_cfg);
    let cl_minimal = minimal_students(&cl_lab);
    println!(
        "\nwithout-COPPA world: {} students, {} with minimal public profiles \
         (nearly all — nobody is a registered adult)",
        cl_lab.scenario.roster().len(),
        cl_minimal.len()
    );
    let config = cl_lab.attack_config();
    let mut access = cl_lab.crawler(2, "cl").boxed();
    for n in [1u32, 2, 3] {
        let heur = run_coppaless_heuristic(
            access.as_mut(),
            &config,
            &CoppalessOptions { alumni_years_back: 2, min_core_friends: n },
        )
        .expect("heuristic");
        let point = score_minimal_set(n as usize, &heur.guessed, &cl_minimal);
        println!(
            "  §7.1 heuristic (n={n}): {} of {} students found ({:.0}%), {} false positives",
            point.found,
            cl_minimal.len(),
            point.pct_found,
            point.false_positives
        );
    }
    println!(
        "\nconclusion: for comparable coverage the without-COPPA attacker pays an order of \
         magnitude more false positives, and the students it finds cannot be classified by \
         graduation year or given friend lists (paper §7.3)."
    );
}
