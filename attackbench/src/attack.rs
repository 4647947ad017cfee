//! The stranger's attack, assembled from public pieces only.
//!
//! Crawlers are `ParallelCrawler`s over `AccountSeat`s whose transport
//! is a [`Timed`] `DirectExchange` or `Client` under a
//! `ResilientExchange`, wired the way the experiment labs wire them
//! (shared registry, per-seat virtual clock, recruitment cap 8). The
//! attack itself is `run_basic` + `run_enhanced` + `evaluate`, reduced
//! to a `SchoolOutcome` whose digest covers the seed, core and
//! candidate counts, the ranked guess list and the eval triple.

use crate::probe::{ProbeAccess, Timed, TransportLog};
use hs_profiler::core::{
    evaluate, run_basic, run_enhanced, AttackConfig, CoreUser, EnhanceOptions, GroundTruth,
};
use hs_profiler::crawler::{AccountSeat, CrawlError, Effort, Journal, OsnAccess, ParallelCrawler};
use hs_profiler::experiments::metro_lab::SchoolOutcome;
use hs_profiler::graph::{CityId, Network};
use hs_profiler::http::{Exchange, Handler, ResilientExchange, RetryPolicy, RetryStats};
use hs_profiler::obs::{Registry, VirtualClock};
use hs_profiler::platform::{MutationPlan, Platform, PlatformConfig};
use hs_profiler::policy::Policy;
use std::sync::Arc;
use std::time::Instant;

pub type Crawler<E> = ParallelCrawler<ResilientExchange<Timed<E>>>;

/// Mount `net` on a fresh platform with its own registry, as the labs
/// do (default platform config, flight recorder off).
pub fn mount(
    net: &Arc<Network>,
    policy: Arc<dyn Policy>,
    mutations: MutationPlan,
) -> (Arc<Platform>, Arc<dyn Handler>) {
    let platform = Platform::with_registry(
        Arc::clone(net),
        policy,
        PlatformConfig { mutations, ..PlatformConfig::default() },
        Registry::shared(),
    );
    let handler = platform.into_handler();
    (platform, handler)
}

/// A journaled or volatile attacker with `accounts` seats, `workers = 1`,
/// every seat's transport timed into `log`. Seat `i` is seeded `seed ^ i`.
pub fn crawler<E: Exchange + Send + 'static>(
    label: &str,
    accounts: usize,
    seed: u64,
    obs: &Registry,
    log: &Arc<TransportLog>,
    transport: impl Fn() -> E + 'static,
    journal: Option<Journal>,
) -> Result<Crawler<E>, CrawlError> {
    // A journaled attacker stamps every request with its attempt
    // sequence, as the crash-only attacker does, so it could resume.
    let attempt_seq = journal.is_some();
    let stats = Arc::new(RetryStats::default());
    let seat = {
        let (log, stats, tracer) = (Arc::clone(log), Arc::clone(&stats), Arc::clone(obs.tracer()));
        move |i: u64| {
            let clock = VirtualClock::shared();
            let exchange = ResilientExchange::with_stats(
                Timed::new(transport(), Arc::clone(&log)),
                RetryPolicy::seeded(seed ^ i),
                Arc::clone(&clock),
                Arc::clone(&stats),
            )
            .with_tracer(Arc::clone(&tracer));
            let exchange = if attempt_seq { exchange.with_attempt_seq() } else { exchange };
            AccountSeat { exchange, clock: Some(clock) }
        }
    };
    let seats: Vec<_> = (0..accounts as u64).map(&seat).collect();
    let mut next = accounts as u64;
    let factory = move || {
        next += 1;
        seat(next)
    };
    let builder = ParallelCrawler::builder(label)
        .workers(1)
        .observability(obs)
        .retry_stats(stats)
        .recruit_with(factory, 8);
    match journal {
        Some(journal) => builder.journal(journal),
        None => builder,
    }
    .build(seats)
}

/// The school under attack and what the attacker knows about it.
pub struct Target {
    pub config: AttackConfig,
    pub city: CityId,
}

/// One attack on one school, with the wall time of its phases.
pub struct Attacked {
    pub outcome: SchoolOutcome,
    pub effort: Effort,
    /// Wall time of `run_basic` + `run_enhanced` + `evaluate`.
    pub core_wall_ns: u64,
    /// Traced only: calls per `OsnAccess` method and time inside them.
    pub access_calls: [u64; 5],
    pub access_ns: u64,
    /// The attack's config and core, kept for re-timing `rank_candidates`.
    pub core: Option<(AttackConfig, Vec<CoreUser>)>,
}

/// Run basic + enhanced + evaluate against `target` through `access`,
/// wrapped in a [`ProbeAccess`] when `traced`.
pub fn attack(
    access: &mut dyn OsnAccess,
    target: &Target,
    truth: impl FnOnce() -> GroundTruth,
    traced: bool,
    keep_core: bool,
) -> Result<Attacked, CrawlError> {
    let started = Instant::now();
    let (mut attacked, calls, busy) = if traced {
        let mut probe = ProbeAccess::new(access);
        let attacked = methodology(&mut probe, target, truth, keep_core)?;
        (attacked, probe.calls, probe.busy_ns)
    } else {
        (methodology(access, target, truth, keep_core)?, [0; 5], 0)
    };
    attacked.core_wall_ns = started.elapsed().as_nanos() as u64;
    attacked.access_calls = calls;
    attacked.access_ns = busy;
    Ok(attacked)
}

fn methodology(
    access: &mut dyn OsnAccess,
    target: &Target,
    truth: impl FnOnce() -> GroundTruth,
    keep_core: bool,
) -> Result<Attacked, CrawlError> {
    let config = &target.config;
    let t = config.school_size_estimate as usize;
    let discovery = run_basic(access, config)?;
    let enhanced = run_enhanced(
        access,
        &discovery,
        &EnhanceOptions { t, filtering: true, enhance: true, school_city: target.city },
    )?;
    let truth = truth();
    let guessed = enhanced.guessed_students(t);
    let eval = evaluate(t, &guessed, |u| enhanced.inferred_year(u, config), &truth);
    let effort = access.effort();
    let outcome = SchoolOutcome {
        school: config.school,
        roster: truth.len(),
        seeds: discovery.seeds.len(),
        core: discovery.core.len(),
        candidates: discovery.candidate_count(),
        eval,
        guessed,
        requests: effort.total(),
    };
    Ok(Attacked {
        outcome,
        effort,
        core_wall_ns: 0,
        access_calls: [0; 5],
        access_ns: 0,
        core: keep_core.then(|| (config.clone(), discovery.core)),
    })
}
