//! Golden pin of the paper's attack on the tiny world: the seed list,
//! the core, the ranked candidates, the Table-4 triple, the `Effort`
//! ledger and the checkpoint digest, recorded before the crawler had a
//! single engine and required to hold byte-for-byte on it — in-process
//! and over loopback TCP alike.

use hs_profiler::crawler::Effort;
use hs_profiler::experiments::runner::{eval_at, full_attack, Lab};
use hs_profiler::obs::trace::{fnv1a_chain, FNV_OFFSET};
use hs_profiler::synth::ScenarioConfig;

const SEEDS: [u64; 61] = [
    1, 35, 42, 51, 55, 74, 75, 82, 89, 100, 101, 104, 107, 108, 112, 134, 137, 138, 140, 141, 142,
    144, 146, 147, 149, 150, 151, 152, 156, 157, 158, 159, 160, 163, 165, 167, 169, 172, 173, 174,
    176, 179, 180, 183, 184, 185, 186, 188, 189, 190, 191, 193, 194, 195, 196, 199, 201, 202, 203,
    208, 209,
];
const CORE: [(u64, i32); 10] = [
    (1, 2015),
    (35, 2014),
    (42, 2014),
    (51, 2014),
    (74, 2013),
    (75, 2013),
    (89, 2012),
    (101, 2012),
    (107, 2012),
    (112, 2012),
];
/// The first 20 of the 519 ranked candidates, and an FNV-1a digest of
/// all of them (each id as 8 little-endian bytes, in rank order).
const RANKED_TOP: [u64; 20] =
    [48, 68, 21, 1209, 10, 1156, 83, 18, 102, 41, 1218, 880, 1431, 3, 106, 1311, 33, 66, 20, 738];
const RANKED_LEN: usize = 519;
const RANKED_DIGEST: u64 = 0x652b_679b_a27a_4a94;
/// Table 4 at t = the school-size estimate: (t, found, correct year).
const TABLE4: (usize, usize, usize) = (128, 102, 100);
/// FNV-1a of the final `CrawlSnapshot` JSON.
const SNAPSHOT_DIGEST: u64 = 0x6525_84e1_4f62_71ae;
/// 383 paced requests × 1.5 s on one worker.
const VIRTUAL_MS: u64 = 574_500;

fn effort(profile_requests: u64, friend_list_requests: u64) -> Effort {
    Effort {
        auth_requests: 4,
        seed_requests: 8,
        profile_requests,
        friend_list_requests,
        ..Effort::default()
    }
}

fn assert_golden(tcp: bool) {
    let mut lab = Lab::facebook(&ScenarioConfig::tiny());
    let run = full_attack(&mut lab, tcp);
    let d = &run.discovery;
    assert_eq!(d.seeds.iter().map(|u| u.0).collect::<Vec<_>>(), SEEDS);
    assert_eq!(d.core.iter().map(|c| (c.id.0, c.grad_year)).collect::<Vec<_>>(), CORE);
    let ranked: Vec<u64> = d.ranked.iter().map(|c| c.id.0).collect();
    assert_eq!(ranked.len(), RANKED_LEN);
    assert_eq!(ranked[..20], RANKED_TOP);
    let digest = ranked.iter().fold(FNV_OFFSET, |h, id| fnv1a_chain(h, &id.to_le_bytes()));
    assert_eq!(digest, RANKED_DIGEST, "ranked candidates drifted");

    let t = run.config.school_size_estimate as usize;
    let point = eval_at(
        t,
        &run.enhanced.guessed_students(t),
        |u| run.enhanced.inferred_year(u, &run.config),
        &lab.ground_truth(),
    );
    assert_eq!((t, point.found, point.correct_year), TABLE4);

    assert_eq!(run.effort_basic, effort(61, 47));
    assert_eq!(run.effort_total, effort(300, 75));
    let snapshot = run.access.checkpoint().to_json().unwrap();
    assert_eq!(fnv1a_chain(FNV_OFFSET, snapshot.as_bytes()), SNAPSHOT_DIGEST);
    assert_eq!(run.access.virtual_elapsed_ms(), VIRTUAL_MS);
    lab.stop_serving();
}

#[test]
fn paper_attack_matches_the_golden_pin_in_process() {
    assert_golden(false);
}

#[test]
fn paper_attack_matches_the_golden_pin_over_tcp() {
    assert_golden(true);
}
