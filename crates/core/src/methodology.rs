//! The basic high-school profiling methodology (paper §4.1, steps 1–6).

use crate::types::{AttackConfig, Candidate, CoreCollection, CoreUser, Discovery};
use hsp_crawler::{CrawlError, OsnAccess};
use hsp_graph::UserId;
use std::collections::HashMap;

/// Step 1–2: collect seeds, download their profiles, and extract the
/// claiming set `C'` and core set `C` (claimers with public friend
/// lists).
pub fn collect_core(
    access: &mut dyn OsnAccess,
    config: &AttackConfig,
) -> Result<CoreCollection, CrawlError> {
    let seeds = access.collect_seeds(config.school)?;
    // Two passes, each preceded by a batch hint: the crawler fetches
    // the whole batch at once (sharded over its accounts), offline
    // accessors no-op and answer lazily below — either way the per-user
    // decisions (and thus the results) are identical.
    access.prefetch_profiles(&seeds)?;
    let mut claiming = Vec::new();
    let mut with_year = Vec::new();
    for &seed in &seeds {
        let profile = access.profile(seed)?;
        if !profile.claims_current_student(config.school, config.senior_class_year) {
            continue;
        }
        let Some(grad_year) = claimed_grad_year(&profile, config) else {
            continue;
        };
        claiming.push(seed);
        with_year.push((seed, grad_year));
    }
    access.prefetch_friends(&claiming)?;
    let mut core = Vec::new();
    for &(seed, grad_year) in &with_year {
        // Only claimers with public friend lists enter C (§4.1 step 2).
        if let Some(friends) = access.friends(seed)? {
            core.push(CoreUser { id: seed, grad_year, friends });
        }
    }
    Ok((seeds, claiming, core))
}

/// The grad year a claiming profile states for the target school (the
/// current-or-future one, in case multiple entries exist).
fn claimed_grad_year(profile: &hsp_crawler::ScrapedProfile, config: &AttackConfig) -> Option<i32> {
    profile
        .education
        .iter()
        .filter(|e| e.kind == hsp_crawler::ScrapedEduKind::HighSchool && e.school == config.school)
        .filter_map(|e| e.grad_year)
        .find(|&g| g >= config.senior_class_year)
}

/// Steps 3–5: build the candidate set `K` from the cores' friend lists,
/// reverse-look-up each candidate's core friendships per class
/// (`G_i(u) = {v ∈ C_i : u ∈ F(v)}`, eq. 1), and score with
/// `x(u) = max_i |G_i(u)| / |C_i|` (eq. 2).
///
/// Crucially this touches **no additional pages**: `G_i(u)` is computed
/// entirely from the already-downloaded core friend lists ("the third
/// party does not have to obtain the profile pages or friend lists of
/// any of the users in the large candidate set", §4.1 step 4).
pub fn rank_candidates(config: &AttackConfig, core: &[CoreUser]) -> Vec<Candidate> {
    let mut core_sizes = [0u32; 4];
    for c in core {
        if let Some(i) = config.class_index(c.grad_year) {
            core_sizes[i] += 1;
        }
    }
    // counts[u][i] = |G_i(u)|
    let mut counts: HashMap<UserId, [u32; 4]> = HashMap::new();
    for c in core {
        let Some(class) = config.class_index(c.grad_year) else {
            continue;
        };
        for &friend in &c.friends {
            counts.entry(friend).or_default()[class] += 1;
        }
    }
    let mut candidates: Vec<Candidate> = counts
        .into_iter()
        .map(|(id, by_class)| score_candidate(id, by_class, core_sizes))
        .collect();
    sort_ranked(&mut candidates);
    candidates
}

/// Score one candidate from its per-class core-friend counts.
pub fn score_candidate(id: UserId, by_class: [u32; 4], core_sizes: [u32; 4]) -> Candidate {
    let mut best = 0usize;
    let mut best_frac = -1.0f64;
    for i in 0..4 {
        if core_sizes[i] == 0 {
            continue;
        }
        let frac = by_class[i] as f64 / core_sizes[i] as f64;
        if frac > best_frac {
            best_frac = frac;
            best = i;
        }
    }
    Candidate { id, core_friends_by_class: by_class, score: best_frac.max(0.0), best_class: best }
}

/// Deterministic ranking: descending score, ties broken by a hash of
/// the id (an arbitrary-but-stable order; raw-id tie-breaking would
/// leak the generator's insertion order to the attacker).
pub fn sort_ranked(candidates: &mut [Candidate]) {
    candidates.sort_unstable_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then(tie_key(a.id).cmp(&tie_key(b.id)))
            .then(a.id.cmp(&b.id))
    });
}

/// SplitMix64 of the id, for unbiased tie-breaking.
fn tie_key(u: UserId) -> u64 {
    let mut z = u.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The full basic methodology (steps 1–6): seeds → core → ranked
/// candidates, packaged as a [`Discovery`].
pub fn run_basic(
    access: &mut dyn OsnAccess,
    config: &AttackConfig,
) -> Result<Discovery, CrawlError> {
    let (seeds, claiming, core) = collect_core(access, config)?;
    let ranked = rank_candidates(config, &core);
    Ok(Discovery { config: config.clone(), seeds, claiming, core, ranked })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_graph::SchoolId;

    fn cfg() -> AttackConfig {
        AttackConfig::new(SchoolId(0), 2012, 360)
    }

    fn core_user(id: u64, grad_year: i32, friends: &[u64]) -> CoreUser {
        CoreUser {
            id: UserId(id),
            grad_year,
            friends: friends.iter().map(|&f| UserId(f)).collect(),
        }
    }

    #[test]
    fn scores_follow_equation_2() {
        // Two cores in 2014 (C_2), one in 2012 (C_4).
        let core = vec![
            core_user(1, 2014, &[10, 11]),
            core_user(2, 2014, &[10]),
            core_user(3, 2012, &[11]),
        ];
        let ranked = rank_candidates(&cfg(), &core);
        let find = |u: u64| ranked.iter().find(|c| c.id == UserId(u)).unwrap();
        // u10 is a friend of both 2014 cores: x = 2/2 = 1.0 in C_2.
        let c10 = find(10);
        assert_eq!(c10.score, 1.0);
        assert_eq!(c10.inferred_grad_year(&cfg()), 2014);
        // u11: 1/2 in C_2, 1/1 in C_4 → max is C_4.
        let c11 = find(11);
        assert_eq!(c11.score, 1.0);
        assert_eq!(c11.inferred_grad_year(&cfg()), 2012);
        assert_eq!(c11.core_friends_by_class, [0, 1, 0, 1]);
    }

    #[test]
    fn empty_core_classes_do_not_divide_by_zero() {
        let core = vec![core_user(1, 2014, &[10])];
        let ranked = rank_candidates(&cfg(), &core);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].score, 1.0);
    }

    #[test]
    fn cores_outside_enrolled_years_are_ignored() {
        let core = vec![core_user(1, 2010, &[10]), core_user(2, 2014, &[11])];
        let ranked = rank_candidates(&cfg(), &core);
        // Only u11 (friend of the 2014 core) appears.
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].id, UserId(11));
    }

    #[test]
    fn ranking_is_deterministic_and_descending() {
        let core = vec![
            core_user(1, 2014, &[10, 11, 12]),
            core_user(2, 2014, &[10, 11]),
            core_user(3, 2014, &[10]),
        ];
        let ranked = rank_candidates(&cfg(), &core);
        assert_eq!(ranked.iter().map(|c| c.id.0).collect::<Vec<_>>(), vec![10, 11, 12]);
        assert!(ranked.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn tie_break_is_deterministic_and_id_independent() {
        let core = vec![core_user(1, 2014, &[30, 20])];
        let a = rank_candidates(&cfg(), &core);
        let b = rank_candidates(&cfg(), &core);
        assert_eq!(
            a.iter().map(|c| c.id).collect::<Vec<_>>(),
            b.iter().map(|c| c.id).collect::<Vec<_>>()
        );
        let ids: Vec<u64> = a.iter().map(|c| c.id.0).collect();
        assert_eq!(
            {
                let mut s = ids.clone();
                s.sort();
                s
            },
            vec![20, 30]
        );
    }
}
