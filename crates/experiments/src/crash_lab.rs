//! Crash-only attacker harness: kill-point injection over a journaled
//! parallel crawl, and bit-identical resume from the durable journal.
//! The crash attacker is [`Lab::crawler`]'s fleet: in-process, the
//! seats reach the lab's handler directly; [`attack_over_tcp`] runs the
//! same startup path as a separate attacker process would, over a
//! loopback [`hsp_http::Client`].
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
//! is built with [`hsp_http::ResilientExchange::with_attempt_seq`], so
//! each request carries a per-account monotone `x-attempt-seq`. The
//! platform keys its fault draws on `(account, seq, site)` instead of a
//! served counter, and its signup and anti-crawl accounting are
//! replay-aware — a resumed crawler re-driving the request prefix after
//! its last durable commit gets byte-identical responses and bills
//! nothing twice.

use crate::runner::{attack_phases, CrawlerSpec, Lab, LabCrawler};
use hsp_core::{evaluate, Discovery, EvalPoint};
use hsp_crawler::{
    fold_state, recover_instrumented, AdaptiveStrategy, CrawlError, Effort, Journal,
    JournalMetrics, KillPlan, OsnAccess, LANE_RECOVERY,
};
use hsp_graph::UserId;
use hsp_obs::trace::{fnv1a_chain, FNV_OFFSET};
use hsp_obs::SpanRecord;
use hsp_platform::{FaultPlan, PlatformConfig};
use hsp_synth::ScenarioConfig;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

/// Fake accounts the crash attacker starts with (the paper's HS1 pair).
const CRASH_ACCOUNTS: usize = 2;
/// Recruitment cap (the 2→4→8 escalation).
const CRASH_MAX_ACCOUNTS: usize = 8;
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
#[derive(Clone, Debug, Default)]
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
    /// The journal's own write-path clock ([`Journal::time_spent`])
    /// after a final sync: encode, group flushes, fdatasync, reopen.
    /// Zero for un-journaled baselines.
    pub journal_write: Duration,
}

/// One kill-point trial: where it died, what recovery saw, and the
/// resumed run's outcome.
#[derive(Clone, Debug, Default)]
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
fn outcome_digest(discovery: &Discovery, guessed: &[UserId], eval: &EvalPoint) -> u64 {
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

/// The crash attacker over `lab`, naive or `adaptive`: the lab's fleet
/// with every attempt stamped with its `x-attempt-seq`.
fn fleet(
    lab: &Lab,
    seed: u64,
    workers: usize,
    adaptive: Option<AdaptiveStrategy>,
) -> CrawlerSpec<'_> {
    lab.crawler(CRASH_ACCOUNTS, "crash")
        .seed(seed)
        .workers(workers)
        .adaptive(adaptive)
        .max_accounts(CRASH_MAX_ACCOUNTS)
        .attempt_seq()
}

/// Drive the full basic + enhanced methodology over `crawler` and
/// reduce it to a [`CrashOutcome`]. A journal is synced first, so its
/// write-path clock covers the whole durable run.
fn drive(
    lab: &Lab,
    mut crawler: LabCrawler,
    journal_path: Option<&Path>,
) -> Result<CrashOutcome, CrawlError> {
    let config = lab.attack_config();
    let (discovery, _, enhanced) =
        attack_phases(&lab.obs, &config, lab.scenario.home_city, &mut crawler)?;
    let t = config.school_size_estimate as usize;
    let truth = lab.ground_truth();
    let guessed: Vec<UserId> = enhanced.guessed_students(t);
    let eval = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
    let journal_write = crawler.journal_mut().map_or(Duration::ZERO, |journal| {
        journal.sync().expect("final journal sync");
        journal.time_spent()
    });
    Ok(CrashOutcome {
        found: eval.found,
        effort: crawler.effort(),
        digest: outcome_digest(&discovery, &guessed, &eval),
        trace_digest: lab.obs.tracer().digest_excluding(&[LANE_RECOVERY]),
        journal_bytes: journal_path.map_or(0, file_bytes),
        journal_write,
    })
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// The yardstick: an uninterrupted attack, naive or `adaptive`, on
/// `lab` — a fresh [`crash_lab`] seeded like the trials' labs, or any
/// lab held for span-level inspection. `journal_path` controls whether
/// it journals (overhead measurement wants both; the digest gates
/// compare against either — journaling never changes results).
pub fn baseline(
    lab: &Lab,
    seed: u64,
    workers: usize,
    adaptive: Option<AdaptiveStrategy>,
    journal_path: Option<&Path>,
) -> CrashOutcome {
    lab.obs.enable_tracing(CRASH_TRACE_CAP);
    let journal = journal_path
        .map(|p| Journal::create(p).expect("baseline journal").with_sync_every(CRASH_SYNC_EVERY));
    let attacker = fleet(lab, seed, workers, adaptive)
        .build_journaled(journal, None)
        .expect("baseline crawler");
    drive(lab, attacker.crawler, journal_path).expect("baseline attack")
}

/// Run the crash-only startup path: recover whatever the journal holds
/// (a missing or empty file is a legal empty log), then either resume
/// or start fresh — the startup path *is* the recovery path.
fn attempt(
    lab: &Lab,
    spec: CrawlerSpec<'_>,
    path: &Path,
    metrics: &JournalMetrics,
    kill: Option<KillPlan>,
    trial: &mut KillTrial,
) -> Result<CrashOutcome, CrawlError> {
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
    let attacker = spec.build_journaled(Some(journal), state.as_ref())?;
    drive(lab, attacker.crawler, Some(path))
}

/// Kill a naive or an `adaptive` attacker at `kill` (a lifetime
/// journal-record kill point, optionally torn mid-frame), then restart
/// it against the *same still-running platform* and let it resume from
/// the journal. `lab` is held by the caller for span-level inspection,
/// or to chain several kills against one platform. Panics on any
/// failure that is not the injected kill.
pub fn killed_and_resumed(
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
    let mut trial = KillTrial { kill_after: kill.after_records, ..KillTrial::default() };
    let mut kill = Some(kill);
    loop {
        let spec = fleet(lab, seed, workers, adaptive);
        match attempt(lab, spec, path, &metrics, kill.take(), &mut trial) {
            Ok(outcome) => {
                trial.completed_before_kill = trial.resumes == 0;
                trial.outcome = outcome;
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

/// One attacker *process*, naive or `adaptive`, against the platform
/// served at `addr`: the crash-only startup path (recover → fold →
/// reopen → build → drive) with every seat on a loopback
/// [`hsp_http::Client`], as a separate process runs it. `lab` is this
/// process's copy of the world, for the attack's configuration and
/// scoring; the seats reach only `addr`. The trial covers this
/// process alone: `resumes` stays 0, and the recovery fields say what
/// its startup recovered (zeros on a fresh start).
/// `Err(CrawlError::BadPage("journal kill point"))` means `kill` fired;
/// the process must then die without unwinding.
pub fn attack_over_tcp(
    lab: &Lab,
    addr: SocketAddr,
    seed: u64,
    workers: usize,
    adaptive: Option<AdaptiveStrategy>,
    kill: Option<KillPlan>,
    path: &Path,
) -> Result<KillTrial, CrawlError> {
    let metrics = JournalMetrics::register(&lab.obs);
    let mut trial =
        KillTrial { kill_after: kill.map_or(0, |k| k.after_records), ..KillTrial::default() };
    let spec = fleet(lab, seed, workers, adaptive).remote(addr);
    trial.outcome = attempt(lab, spec, path, &metrics, kill, &mut trial)?;
    trial.completed_before_kill = kill.is_some();
    Ok(trial)
}
