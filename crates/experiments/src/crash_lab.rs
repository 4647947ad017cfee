//! Crash-only attacker harness: kill-point injection over a journaled
//! parallel crawl, and bit-identical resume from the durable journal.
//!
//! The model: the *attacker's process* dies (power cut, OOM kill,
//! operator ctrl-C) at an arbitrary journal byte boundary; the platform
//! — the real social network — of course keeps running. So a trial
//! shares one [`Lab`] (one platform, one clock, one mutation engine,
//! one flight recorder) between the killed run and its resume, while
//! the baseline runs on a *separate identically-seeded* lab. The gate
//! is that kill + resume converges to the uninterrupted run exactly:
//! same `Effort` ledger, same Table-4-style outcome digest, same trace
//! digest (minus the administrative recovery lane).
//!
//! Replay correctness rests on the sequence-mode substrate: every seat
//! is built with [`ResilientExchange::with_attempt_seq`], so each
//! request carries a per-account monotone `x-attempt-seq`. The platform
//! keys its fault draws on `(account, seq, site)` instead of a served
//! counter, and its anti-crawl accounting is replay-aware — a resumed
//! crawler re-driving the request prefix after its last durable commit
//! gets byte-identical responses and bills nothing twice.

use crate::runner::{attack_phases, Lab};
use hsp_core::{evaluate, Discovery, EvalPoint};
use hsp_crawler::{
    fold_state, recover_instrumented, AccountSeat, AdaptiveStrategy, CrawlError, Effort, Journal,
    JournalMetrics, KillPlan, OsnAccess, ParallelCrawler, ResumeState, LANE_RECOVERY,
};
use hsp_graph::UserId;
use hsp_http::{DirectExchange, Handler, ResilientExchange, RetryPolicy, RetryStats};
use hsp_obs::trace::{fnv1a_chain, FNV_OFFSET};
use hsp_obs::{FlightRecorder, SpanRecord, VirtualClock};
use hsp_platform::{FaultPlan, PlatformConfig};
use hsp_synth::ScenarioConfig;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Fake accounts the crash attacker starts with (the paper's HS1 pair).
pub const CRASH_ACCOUNTS: usize = 2;
/// Recruitment cap (the 2→4→8 escalation).
pub const CRASH_MAX_ACCOUNTS: usize = 8;
/// Per-lane flight-recorder ring capacity for crash trials.
pub const CRASH_TRACE_CAP: usize = 16_384;
/// Group-commit batching: fdatasync every n-th committed group. The
/// scheduler seals one group per crawl op, so a message-heavy attack
/// phase pays ~1 fdatasync per message under eager syncing; batching
/// amortizes that to ~1/64 while recovery semantics stay unchanged
/// (a power cut can lose at most the last 63 committed groups, all
/// idempotent, which a resume re-drives through the replay-aware
/// platform; a mere process crash loses nothing — the bytes are
/// already in the page cache).
pub const CRASH_SYNC_EVERY: u64 = 64;

type CrashExchange = ResilientExchange<DirectExchange>;

/// A crash trial's platform: chaos faults armed **and** a live
/// (mutating) world — the hardest setting the determinism gates cover —
/// with the sybil detector off (crash-determinism and behavioral
/// scoring are separate arms; see DESIGN.md §10 non-goals).
pub fn crash_lab(cfg: &ScenarioConfig, churn: f64) -> Lab {
    Lab::facebook_configured(
        cfg,
        PlatformConfig {
            faults: FaultPlan::chaos(),
            mutations: Lab::churn_plan(cfg, churn),
            ..PlatformConfig::default()
        },
    )
}

/// One finished (baseline or resumed) attack, reduced to the three
/// equality gates plus journal cost accounting.
#[derive(Clone, Debug)]
pub struct CrashOutcome {
    /// Students identified at t = enrollment estimate.
    pub found: usize,
    /// The attacker's complete effort ledger.
    pub effort: Effort,
    /// FNV-1a over the Table-2/Table-4 outputs (seed/core/candidate
    /// counts, the exact ranked guess list, the eval triple).
    pub digest: u64,
    /// Flight-recorder digest excluding [`LANE_RECOVERY`].
    pub trace_digest: u64,
    /// Final journal size on disk (0 for un-journaled baselines).
    pub journal_bytes: u64,
}

/// One kill-point trial: where it died, what recovery saw, and the
/// resumed run's outcome.
#[derive(Clone, Debug)]
pub struct KillTrial {
    pub kill_after: u64,
    /// The kill point lay beyond the journal's natural length, so the
    /// run completed uninterrupted (still journaled).
    pub completed_before_kill: bool,
    /// Times the process "died" and restarted (0 or 1 per trial).
    pub resumes: u64,
    /// Committed records the resume recovered from the journal.
    pub recovered_records: u64,
    /// Valid-but-uncommitted tail records recovery discarded.
    pub discarded_records: u64,
    /// Torn bytes recovery cut off the tail.
    pub torn_bytes: u64,
    /// Wall-clock cost of scan + fold + reopen, microseconds.
    pub recovery_us: u64,
    pub outcome: CrashOutcome,
}

/// FNV-1a over one attack's Table-2/Table-4 outputs: the seed, core
/// and candidate counts, the exact ranked guess list, the eval triple.
pub fn outcome_digest(discovery: &Discovery, guessed: &[UserId], eval: &EvalPoint) -> u64 {
    let head = [
        discovery.seeds.len() as u64,
        discovery.core.len() as u64,
        discovery.candidate_count() as u64,
        guessed.len() as u64,
    ];
    let tail = [eval.found as u64, eval.correct_year as u64, eval.guessed as u64];
    head.into_iter()
        .chain(guessed.iter().map(|u| u.0))
        .chain(tail)
        .fold(FNV_OFFSET, |h, v| fnv1a_chain(h, &v.to_le_bytes()))
}

fn make_seat(
    handler: &Arc<dyn Handler>,
    tracer: &Arc<FlightRecorder>,
    stats: &Arc<RetryStats>,
    seed: u64,
    i: u64,
) -> AccountSeat<CrashExchange> {
    let clock = VirtualClock::shared();
    AccountSeat {
        exchange: ResilientExchange::with_stats(
            DirectExchange::new(Arc::clone(handler)),
            RetryPolicy::seeded(seed ^ i),
            Arc::clone(&clock),
            Arc::clone(stats),
        )
        .with_tracer(Arc::clone(tracer))
        .with_attempt_seq(),
        clock: Some(clock),
    }
}

/// The crash attacker's settings: retry seed, worker threads, and the
/// adaptive strategy (`None` = naive pacing).
#[derive(Clone, Copy)]
struct Fleet {
    seed: u64,
    workers: usize,
    adaptive: Option<AdaptiveStrategy>,
}

/// Build the crash attacker over `lab`: fresh (`resume` is `None`;
/// journaled unless `journal` is `None`) or rebuilt from a recovered
/// journal state by [`hsp_crawler::ParallelCrawlerBuilder::build_resumed`].
/// Seat `i` is seeded `seed ^ i` and recruits continue at `accounts +
/// 1, accounts + 2, ...` — the convention [`Lab::crawler`] uses — so a
/// resume re-mints every journaled lane with its original seed (initial
/// lane `i` was seat `i`; recruit lane `CRASH_ACCOUNTS + j` was seat
/// `CRASH_ACCOUNTS + 1 + j`).
fn build(
    lab: &Lab,
    fleet: Fleet,
    resume: Option<&ResumeState>,
    journal: Option<Journal>,
) -> Result<ParallelCrawler<CrashExchange>, CrawlError> {
    let Fleet { seed, workers, adaptive } = fleet;
    let stats = Arc::new(RetryStats::default());
    let handler = lab.handler();
    let tracer = Arc::clone(lab.obs.tracer());
    let (lanes, recruited) =
        resume.map_or((CRASH_ACCOUNTS, 0), |s| (s.lanes.len(), s.sched.recruited));
    let seat_index = |lane: usize| -> u64 {
        if lane < CRASH_ACCOUNTS {
            lane as u64
        } else {
            (CRASH_ACCOUNTS + 1 + (lane - CRASH_ACCOUNTS)) as u64
        }
    };
    let seats: Vec<_> =
        (0..lanes).map(|i| make_seat(&handler, &tracer, &stats, seed, seat_index(i))).collect();
    let factory = {
        let (handler, tracer, stats) = (handler, tracer, Arc::clone(&stats));
        // The original factory had handed out `recruited` seats already.
        let mut next = CRASH_ACCOUNTS as u64 + recruited;
        move || {
            next += 1;
            make_seat(&handler, &tracer, &stats, seed, next)
        }
    };
    let mut builder = ParallelCrawler::builder("crash")
        .workers(workers)
        .observability(&lab.obs)
        .retry_stats(stats)
        .recruit_with(factory, CRASH_MAX_ACCOUNTS);
    if let Some(strategy) = adaptive {
        builder = builder.adaptive(strategy);
    }
    if let Some(journal) = journal {
        builder = builder.journal(journal);
    }
    match resume {
        Some(state) => builder.build_resumed(state, seats),
        None => builder.build(seats),
    }
}

/// Drive the full basic + enhanced methodology and reduce to
/// `(outcome digest, found)`.
fn drive(lab: &Lab, access: &mut dyn OsnAccess) -> Result<(u64, usize), CrawlError> {
    let (config, discovery, _, enhanced) = attack_phases(lab, access)?;
    let t = config.school_size_estimate as usize;
    let truth = lab.ground_truth();
    let guessed: Vec<UserId> = enhanced.guessed_students(t);
    let eval = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
    Ok((outcome_digest(&discovery, &guessed, &eval), eval.found))
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The yardstick: an uninterrupted attack on a fresh identically-seeded
/// lab. `journal` controls whether it journals (overhead measurement
/// wants both; the digest gates compare against either — journaling
/// never changes results).
pub fn baseline(
    cfg: &ScenarioConfig,
    seed: u64,
    workers: usize,
    churn: f64,
    journal_path: Option<&Path>,
) -> CrashOutcome {
    baseline_on(&crash_lab(cfg, churn), seed, workers, None, journal_path)
}

/// [`baseline`] over a caller-held lab (span-level inspection), for a
/// naive or an `adaptive` attacker.
pub fn baseline_on(
    lab: &Lab,
    seed: u64,
    workers: usize,
    adaptive: Option<AdaptiveStrategy>,
    journal_path: Option<&Path>,
) -> CrashOutcome {
    lab.obs.enable_tracing(CRASH_TRACE_CAP);
    let journal = journal_path
        .map(|p| Journal::create(p).expect("baseline journal").with_sync_every(CRASH_SYNC_EVERY));
    let fleet = Fleet { seed, workers, adaptive };
    let mut crawler = build(lab, fleet, None, journal).expect("baseline crawler");
    let (digest, found) = drive(lab, &mut crawler).expect("baseline attack");
    CrashOutcome {
        found,
        effort: crawler.effort(),
        digest,
        trace_digest: lab.obs.tracer().digest_excluding(&[LANE_RECOVERY]),
        journal_bytes: journal_path.map(file_bytes).unwrap_or(0),
    }
}

/// Run the crash-only startup path: recover whatever the journal holds
/// (a missing or empty file is a legal empty log), then either resume
/// or start fresh — the startup path *is* the recovery path.
#[allow(clippy::type_complexity)]
fn attempt(
    lab: &Lab,
    fleet: Fleet,
    path: &Path,
    metrics: &JournalMetrics,
    kill: Option<KillPlan>,
    trial: &mut KillTrial,
) -> Result<(u64, usize, Effort), CrawlError> {
    let t0 = Instant::now();
    let log = recover_instrumented(path, metrics).expect("journal recovery");
    let state = fold_state(&log.records).expect("journal fold");
    let journal = match &state {
        Some(state) => Journal::create_with_base(path, state),
        None => Journal::create(path),
    }
    .expect("journal reopen")
    .with_sync_every(CRASH_SYNC_EVERY)
    .with_metrics(metrics.clone());
    let journal = match kill {
        Some(plan) => journal.with_kill_plan(plan),
        None => journal,
    };
    if state.is_some() {
        trial.recovered_records = log.records.len() as u64;
        trial.discarded_records = log.discarded_records;
        trial.torn_bytes = log.torn_bytes;
        trial.recovery_us = t0.elapsed().as_micros() as u64;
        // Administrative span on the recovery lane: present only in
        // resumed runs, hence excluded from the comparison digest.
        lab.obs.tracer().record(SpanRecord {
            trace_id: 0,
            span_id: trial.resumes,
            parent_id: 0,
            lane: LANE_RECOVERY,
            ordinal: trial.resumes,
            name: "recover:journal".to_string(),
            begin_ms: 0,
            end_ms: 0,
            status: 200,
            outcome: "ok".to_string(),
            provenance: String::new(),
            captcha_ms: 0,
        });
    }
    let mut crawler = build(lab, fleet, state.as_ref(), Some(journal))?;
    let (digest, found) = drive(lab, &mut crawler)?;
    Ok((digest, found, crawler.effort()))
}

/// Kill the attacker at `kill` (a lifetime journal-record kill point,
/// optionally torn mid-frame), then restart it against the *same
/// still-running platform* and let it resume from the journal. Panics
/// on any failure that is not the injected kill.
pub fn killed_and_resumed(
    cfg: &ScenarioConfig,
    seed: u64,
    workers: usize,
    churn: f64,
    kill: KillPlan,
    path: &Path,
) -> KillTrial {
    killed_and_resumed_on(&crash_lab(cfg, churn), seed, workers, None, kill, path)
}

/// [`killed_and_resumed`] over a caller-held lab (span-level
/// inspection, or chaining several kills against one platform), for a
/// naive or an `adaptive` attacker.
pub fn killed_and_resumed_on(
    lab: &Lab,
    seed: u64,
    workers: usize,
    adaptive: Option<AdaptiveStrategy>,
    kill: KillPlan,
    path: &Path,
) -> KillTrial {
    let _ = std::fs::remove_file(path);
    lab.obs.enable_tracing(CRASH_TRACE_CAP);
    let metrics = JournalMetrics::register(&lab.obs);
    let mut trial = KillTrial {
        kill_after: kill.after_records,
        completed_before_kill: false,
        resumes: 0,
        recovered_records: 0,
        discarded_records: 0,
        torn_bytes: 0,
        recovery_us: 0,
        outcome: CrashOutcome {
            found: 0,
            effort: Effort::default(),
            digest: 0,
            trace_digest: 0,
            journal_bytes: 0,
        },
    };
    let mut kill = Some(kill);
    loop {
        let fleet = Fleet { seed, workers, adaptive };
        match attempt(lab, fleet, path, &metrics, kill.take(), &mut trial) {
            Ok((digest, found, effort)) => {
                trial.completed_before_kill = trial.resumes == 0;
                trial.outcome = CrashOutcome {
                    found,
                    effort,
                    digest,
                    trace_digest: lab.obs.tracer().digest_excluding(&[LANE_RECOVERY]),
                    journal_bytes: file_bytes(path),
                };
                return trial;
            }
            Err(CrawlError::BadPage("journal kill point")) => {
                // The "process" is dead; everything in memory is gone.
                // Only the journal file and the platform survive.
                trial.resumes += 1;
                assert!(trial.resumes <= 2, "kill plan must not fire after a resume");
            }
            Err(e) => panic!("crash trial died for a non-kill reason: {e:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hsp-crash-lab-tests");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    #[test]
    fn journaling_never_changes_results() {
        let cfg = ScenarioConfig::tiny();
        let path = tmp("plain.journal");
        let bare = baseline(&cfg, 0xC4A5, 2, 1.0, None);
        let journaled = baseline(&cfg, 0xC4A5, 2, 1.0, Some(&path));
        assert_eq!(bare.digest, journaled.digest);
        assert_eq!(bare.effort, journaled.effort);
        assert_eq!(bare.trace_digest, journaled.trace_digest);
        assert!(journaled.journal_bytes > 0);
    }

    #[test]
    fn kill_and_resume_is_bit_identical_under_chaos_and_churn() {
        let cfg = ScenarioConfig::tiny();
        let yardstick = baseline(&cfg, 0xC4A5, 2, 1.0, None);
        for (label, kill) in
            [("clean-cut", KillPlan::after(40)), ("torn-tail", KillPlan::torn(120, 7))]
        {
            let path = tmp(&format!("{label}.journal"));
            let trial = killed_and_resumed(&cfg, 0xC4A5, 2, 1.0, kill, &path);
            assert!(!trial.completed_before_kill, "{label}: kill point never fired");
            assert_eq!(trial.resumes, 1, "{label}");
            assert_eq!(trial.outcome.digest, yardstick.digest, "{label}: outcome digest drifted");
            assert_eq!(trial.outcome.effort, yardstick.effort, "{label}: effort ledger drifted");
            assert_eq!(
                trial.outcome.trace_digest, yardstick.trace_digest,
                "{label}: trace digest drifted"
            );
            assert!(trial.recovered_records > 0, "{label}");
        }
    }
}
