//! Shared experiment plumbing: build a world, serve it, attack it.
//!
//! Every lab carries an [`hsp_obs::Registry`] shared by the platform
//! handlers, the loopback HTTP server and the crawler, and the runner
//! wraps the experiment phases — generate → serve → crawl → infer →
//! evaluate — in spans recorded under `experiment_phase_us{phase=...}`.

use hsp_core::{
    evaluate, run_basic, run_enhanced, AttackConfig, Discovery, EnhanceOptions, Enhanced,
    EvalPoint, GroundTruth,
};
use hsp_crawler::{
    AccountSeat, AdaptiveStrategy, CrawlError, Effort, Journal, OsnAccess, ParallelCrawler,
    Politeness, ResumeState,
};
use hsp_graph::CityId;
use hsp_http::{
    ChaosPlan, ChaosStats, ChaosTransport, Client, DirectExchange, Exchange, Handler,
    ResilientExchange, RetryPolicy, RetryStats, Server, ServerConfig,
};
use hsp_obs::{Registry, SpanGuard, VirtualClock};
use hsp_platform::{DefenseConfig, FaultPlan, MutationPlan, Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, Policy};
use hsp_synth::{generate, ChurnModel, Scenario, ScenarioConfig};
use std::net::SocketAddr;
use std::sync::Arc;

/// Scoped timer for one experiment phase, recorded on `reg` under
/// `experiment_phase_us{phase="<name>"}`.
pub fn phase_span(reg: &Registry, phase: &str) -> SpanGuard {
    SpanGuard::new(reg.histogram_with("experiment_phase_us", &[("phase", phase)]))
}

/// A generated world mounted on a platform, ready to be attacked.
pub struct Lab {
    pub scenario: Scenario,
    pub platform: Arc<Platform>,
    /// Registry shared by platform, server and crawlers of this lab.
    pub obs: Arc<Registry>,
    handler: Arc<dyn Handler>,
    server: Option<Server>,
}

impl Lab {
    /// Build with the standard Facebook policy.
    pub fn facebook(cfg: &ScenarioConfig) -> Lab {
        Self::facebook_configured(cfg, PlatformConfig::default())
    }

    /// [`Lab::facebook`] recording into an existing registry.
    pub fn facebook_with_registry(cfg: &ScenarioConfig, obs: Arc<Registry>) -> Lab {
        Self::generate_and_mount(cfg, PlatformConfig::default(), obs)
    }

    /// [`Lab::facebook`] with a hostile platform: the given fault plan
    /// is armed on an otherwise-default configuration. Every
    /// [`Lab::crawler`] survives it.
    pub fn facebook_chaotic(cfg: &ScenarioConfig, plan: FaultPlan) -> Lab {
        Self::facebook_configured(cfg, PlatformConfig { faults: plan, ..PlatformConfig::default() })
    }

    /// [`Lab::facebook`] with the sybil detector armed (see
    /// `hsp_defense`): behavioral scoring on every stranger-facing
    /// route, escalating CAPTCHA → throttle → suspension per
    /// `defense.strength`. `DetectorStrength::Off` yields a platform
    /// bit-identical to [`Lab::facebook`].
    pub fn facebook_defended(cfg: &ScenarioConfig, defense: DefenseConfig) -> Lab {
        Self::facebook_configured(cfg, PlatformConfig { defense, ..PlatformConfig::default() })
    }

    /// [`Lab::facebook`] over a *live* world: the mutation engine armed
    /// with the scenario's own [`ChurnModel`] scaled by `factor`.
    /// `factor == 0.0` produces a frozen plan (empty schedule, no
    /// rollover), which the platform serves byte-identically to
    /// [`Lab::facebook`] — the zero-rate equivalence gate.
    pub fn facebook_live(cfg: &ScenarioConfig, factor: f64) -> Lab {
        Self::facebook_configured(
            cfg,
            PlatformConfig {
                mutations: Self::churn_plan(cfg, factor),
                ..PlatformConfig::default()
            },
        )
    }

    /// Glue [`ChurnModel`] → [`MutationPlan`]: the scenario's derived
    /// per-mille rates scaled by `factor`, on the canonical live
    /// horizon (2 h of virtual time, one graduation rollover at 1 h —
    /// dropped entirely at `factor == 0.0` so the schedule is empty).
    pub fn churn_plan(cfg: &ScenarioConfig, factor: f64) -> MutationPlan {
        let churn = ChurnModel::from_scenario(cfg).scaled(factor);
        MutationPlan {
            enabled: true,
            horizon_ms: 7_200_000,
            signup_per_mille: churn.signup_per_mille,
            friend_per_mille: churn.friend_per_mille,
            defriend_per_mille: churn.defriend_per_mille,
            privacy_flip_per_mille: churn.privacy_flip_per_mille,
            deactivate_per_mille: churn.deactivate_per_mille,
            rollover_at_ms: if factor == 0.0 { Vec::new() } else { vec![3_600_000] },
            ..MutationPlan::default()
        }
    }

    /// [`Lab::facebook`] over a fully caller-specified
    /// [`PlatformConfig`] (fault plan, defense, rate limits, ...).
    pub fn facebook_configured(cfg: &ScenarioConfig, config: PlatformConfig) -> Lab {
        Self::generate_and_mount(cfg, config, Registry::shared())
    }

    /// Mount an already-generated scenario (reuse across policy variants).
    pub fn from_scenario(scenario: Scenario, policy: Arc<dyn Policy>) -> Lab {
        Self::mount(scenario, policy, PlatformConfig::default(), Registry::shared())
    }

    /// Generate `cfg`'s world under the "generate" phase span, record
    /// its build rate as `synth_users_per_sec`, and mount it on a
    /// Facebook-policy platform.
    fn generate_and_mount(cfg: &ScenarioConfig, config: PlatformConfig, obs: Arc<Registry>) -> Lab {
        let scenario = {
            let _span = phase_span(&obs, "generate");
            let started = std::time::Instant::now();
            let scenario = generate(cfg);
            let us = started.elapsed().as_micros().max(1);
            let rate = scenario.network.user_count() as u128 * 1_000_000 / us;
            obs.gauge("synth_users_per_sec").set(rate as i64);
            scenario
        };
        Self::mount(scenario, Arc::new(FacebookPolicy::new()), config, obs)
    }

    /// Every constructor's one path: serve `scenario` under `policy`
    /// and `config`, recording into `obs`.
    fn mount(
        scenario: Scenario,
        policy: Arc<dyn Policy>,
        config: PlatformConfig,
        obs: Arc<Registry>,
    ) -> Lab {
        let platform = Platform::with_registry(
            Arc::new(scenario.network.clone()),
            policy,
            config,
            Arc::clone(&obs),
        );
        let handler = platform.into_handler();
        Lab { scenario, platform, obs, handler, server: None }
    }

    /// Start a real loopback HTTP server for this lab (TCP mode),
    /// wired into the lab's registry.
    pub fn serve(&mut self) -> std::io::Result<std::net::SocketAddr> {
        self.serve_hardened(ServerConfig::default())
    }

    /// Like [`Lab::serve`] but with a caller-supplied (typically
    /// overload-hardened) [`ServerConfig`]; the lab still wires its own
    /// registry and thread-name prefix in.
    pub fn serve_hardened(
        &mut self,
        config: ServerConfig,
    ) -> std::io::Result<std::net::SocketAddr> {
        let _span = phase_span(&self.obs, "serve");
        let config = ServerConfig {
            metrics: Some(Arc::clone(&self.obs)),
            thread_name_prefix: "hsp-lab".to_string(),
            ..config
        };
        let server = Server::start_with(self.handler.clone(), config)?;
        let addr = server.addr();
        self.server = Some(server);
        Ok(addr)
    }

    /// The running loopback server, if [`Lab::serve`] (or
    /// [`Lab::serve_hardened`]) was called — e.g. to begin a graceful
    /// drain from a soak harness.
    pub fn server(&self) -> Option<&Server> {
        self.server.as_ref()
    }

    /// Stop serving: take the server out of the lab and shut it down
    /// gracefully, returning once every worker has been joined.
    pub fn stop_serving(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }

    /// Start the loopback server if `tcp` is set and none is running
    /// yet (what a `.tcp(true)` crawler connects to).
    pub fn serve_if(&mut self, tcp: bool) {
        if tcp && self.server.is_none() {
            self.serve().expect("bind loopback server");
        }
    }

    /// The attacker's crawler, to be configured and built: `accounts`
    /// fake accounts on the one crawl engine ([`ParallelCrawler`]).
    /// Every account is a seat with its own virtual clock and a
    /// [`ResilientExchange`] (retry jitter seeded `seed ^ i`) over the
    /// in-process handler, and suspended accounts are replaced by
    /// recruits (the paper's 2→4→8 escalation). Defaults: seed 0, one
    /// worker (the paper's crawl), default politeness, naive pacing, at
    /// most 8 accounts, no transport chaos, in-process. Deterministic
    /// for a fixed seed and identical at any worker count.
    pub fn crawler(&self, accounts: usize, label: &str) -> CrawlerSpec<'_> {
        let server = self.server.as_ref().map(Server::addr);
        CrawlerSpec::new(&self.handler, &self.obs, server, accounts, label)
    }

    /// The attacker's configuration for the target school.
    pub fn attack_config(&self) -> AttackConfig {
        AttackConfig::new(
            self.scenario.school,
            self.scenario.network.senior_class_year(),
            self.scenario.config.public_enrollment_estimate,
        )
    }

    /// Ground truth for scoring.
    pub fn ground_truth(&self) -> GroundTruth {
        GroundTruth::from_scenario(&self.scenario)
    }

    /// The paper's per-school account counts: 2 for HS1, 4 for the
    /// larger schools.
    pub fn paper_account_count(&self) -> usize {
        if self.scenario.config.school_size <= 500 {
            2
        } else {
            4
        }
    }
}

/// The crawler a [`Lab`] builds: every seat's transport is the retry
/// layer over a boxed stack — optionally a [`ChaosTransport`], over
/// [`DirectExchange`] or a loopback [`Client`].
pub type LabCrawler = ParallelCrawler<ResilientExchange<Box<dyn Exchange + Send>>>;

/// A built lab crawler plus the audit blocks every seat reports into.
pub struct Attacker {
    pub crawler: LabCrawler,
    /// What the seats' retry layers absorbed (retries, refusals, sheds).
    pub retry_stats: Arc<RetryStats>,
    /// What the seats' chaos transports injected (all zero without a
    /// chaos plan).
    pub chaos_stats: Arc<ChaosStats>,
}

/// A lab crawler's settings; see [`Lab::crawler`]. This is the only
/// place in the crate that mints seats: how seat `i` is seeded, how
/// recruits are numbered, and how a resumed fleet is re-minted.
pub struct CrawlerSpec<'a> {
    handler: &'a Arc<dyn Handler>,
    obs: &'a Registry,
    /// Where a TCP crawler connects: the lab's own server, if it
    /// serves, or [`CrawlerSpec::remote`]'s address.
    server: Option<SocketAddr>,
    accounts: usize,
    label: String,
    seed: u64,
    workers: usize,
    politeness: Politeness,
    adaptive: Option<AdaptiveStrategy>,
    max_accounts: usize,
    chaos: Option<ChaosPlan>,
    tcp: bool,
    attempt_seq: bool,
}

impl<'a> CrawlerSpec<'a> {
    /// `accounts` seats over `handler` (or over TCP to `server`),
    /// recording into `obs`, with [`Lab::crawler`]'s defaults.
    pub(crate) fn new(
        handler: &'a Arc<dyn Handler>,
        obs: &'a Registry,
        server: Option<SocketAddr>,
        accounts: usize,
        label: &str,
    ) -> CrawlerSpec<'a> {
        CrawlerSpec {
            handler,
            obs,
            server,
            accounts,
            label: label.to_string(),
            seed: 0,
            workers: 1,
            politeness: Politeness::default(),
            adaptive: None,
            max_accounts: 8,
            chaos: None,
            tcp: false,
            attempt_seq: false,
        }
    }

    /// Seed of the seats' retry jitter streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// OS threads driving account queues (wall-clock only, never
    /// results).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Pacing — the crawl-duration axis of the freshness experiment.
    pub fn politeness(mut self, politeness: Politeness) -> Self {
        self.politeness = politeness;
        self
    }

    /// The arms race's adaptive evasion strategy (`None` = naive).
    pub fn adaptive(mut self, adaptive: Option<AdaptiveStrategy>) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Fleet cap for suspension failover (the arms race's sybil answer
    /// to suspensions is a deeper bench: 64).
    pub fn max_accounts(mut self, max_accounts: usize) -> Self {
        self.max_accounts = max_accounts;
        self
    }

    /// Splice a deterministic [`ChaosTransport`] beneath every seat's
    /// retry layer, seeded per account from `plan.seed`.
    pub fn chaos(mut self, plan: &ChaosPlan) -> Self {
        self.chaos = Some(plan.clone());
        self
    }

    /// Crawl over real loopback TCP (needs [`Lab::serve`] or
    /// [`Lab::serve_if`] first).
    pub fn tcp(mut self, tcp: bool) -> Self {
        self.tcp = tcp;
        self
    }

    /// Stamp every attempt with a per-seat `x-attempt-seq`
    /// ([`ResilientExchange::with_attempt_seq`]), which a resumable
    /// fleet needs. Separate from journaling: an un-journaled yardstick
    /// must draw the same faults as the journaled run it is compared to.
    pub(crate) fn attempt_seq(mut self) -> Self {
        self.attempt_seq = true;
        self
    }

    /// Crawl over TCP to the platform served at `addr` — another
    /// process's server, not this lab's.
    pub(crate) fn remote(mut self, addr: SocketAddr) -> Self {
        self.server = Some(addr);
        self.tcp = true;
        self
    }

    /// Sign up and log in the fleet.
    pub fn build(self) -> Attacker {
        self.build_journaled(None, None).expect("crawler setup")
    }

    /// [`CrawlerSpec::build`], boxed for the methodology.
    pub fn boxed(self) -> Box<dyn OsnAccess> {
        Box::new(self.build().crawler)
    }

    /// Build the fleet journaling to `journal`: fresh (`resume` is
    /// `None`), or rebuilt from a recovered journal state by
    /// [`hsp_crawler::ParallelCrawlerBuilder::build_resumed`] with one
    /// seat per journaled lane, minted in lane order (a lane's jitter
    /// state is restored from the journal, so its seat number is not
    /// observable). Seat `i` is seeded `seed ^ i`, and recruits are
    /// seats `accounts + 1, accounts + 2, ...`; after a resume they
    /// continue at `accounts + recruited + 1`, so a recruit the killed
    /// run had signed up but not committed is re-minted as the same
    /// seat.
    pub(crate) fn build_journaled(
        self,
        journal: Option<Journal>,
        resume: Option<&ResumeState>,
    ) -> Result<Attacker, CrawlError> {
        let wire: Box<dyn Fn() -> Box<dyn Exchange + Send>> = if self.tcp {
            let addr = self.server.expect("call serve() before a TCP crawler");
            Box::new(move || Box::new(Client::new(addr)))
        } else {
            let handler = Arc::clone(self.handler);
            Box::new(move || Box::new(DirectExchange::new(Arc::clone(&handler))))
        };
        let retry_stats = Arc::new(RetryStats::default());
        let chaos_stats = Arc::new(ChaosStats::default());
        let seat = {
            let (retry_stats, chaos_stats) = (Arc::clone(&retry_stats), Arc::clone(&chaos_stats));
            let tracer = Arc::clone(self.obs.tracer());
            let (chaos, seed, attempt_seq) = (self.chaos, self.seed, self.attempt_seq);
            move |i: u64| {
                let clock = VirtualClock::shared();
                let mut transport = wire();
                if let Some(plan) = &chaos {
                    let plan = plan.with_seed(plan.seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    let chaotic = ChaosTransport::with_stats(
                        transport,
                        plan,
                        Arc::clone(&clock),
                        Arc::clone(&chaos_stats),
                    );
                    transport = Box::new(chaotic.with_tracer(Arc::clone(&tracer)));
                }
                let mut exchange = ResilientExchange::with_stats(
                    transport,
                    RetryPolicy::seeded(seed ^ i),
                    Arc::clone(&clock),
                    Arc::clone(&retry_stats),
                )
                .with_tracer(Arc::clone(&tracer));
                if attempt_seq {
                    exchange = exchange.with_attempt_seq();
                }
                AccountSeat { exchange, clock: Some(clock) }
            }
        };
        let (lanes, recruited) =
            resume.map_or((self.accounts, 0), |s| (s.lanes.len(), s.sched.recruited));
        let seats: Vec<_> = (0..lanes as u64).map(&seat).collect();
        let mut next = self.accounts as u64 + recruited;
        let factory = move || {
            next += 1;
            seat(next)
        };
        let mut builder = ParallelCrawler::builder(&self.label)
            .workers(self.workers)
            .politeness(self.politeness)
            .observability(self.obs)
            .retry_stats(Arc::clone(&retry_stats))
            .recruit_with(factory, self.max_accounts);
        if let Some(strategy) = self.adaptive {
            builder = builder.adaptive(strategy);
        }
        if let Some(journal) = journal {
            builder = builder.journal(journal);
        }
        let crawler = match resume {
            Some(state) => builder.build_resumed(state, seats)?,
            None => builder.build(seats)?,
        };
        Ok(Attacker { crawler, retry_stats, chaos_stats })
    }
}

/// A basic + enhanced attack run with its artifacts.
pub struct AttackRun {
    pub config: AttackConfig,
    pub discovery: Discovery,
    pub enhanced: Enhanced,
    pub effort_basic: Effort,
    pub effort_total: Effort,
    pub access: Box<dyn OsnAccess>,
}

/// Run basic then enhanced(+filtering) with the paper's parameters and
/// account count, over loopback TCP when `tcp` is set.
pub fn full_attack(lab: &mut Lab, tcp: bool) -> AttackRun {
    lab.serve_if(tcp);
    let access = lab.crawler(lab.paper_account_count(), "atk").tcp(tcp).boxed();
    full_attack_with(lab, access)
}

/// [`full_attack`] over a caller-supplied access layer (e.g. a seeded
/// [`Lab::crawler`] for chaos runs).
pub fn full_attack_with(lab: &Lab, mut access: Box<dyn OsnAccess>) -> AttackRun {
    let config = lab.attack_config();
    let (discovery, effort_basic, enhanced) =
        attack_phases(&lab.obs, &config, lab.scenario.home_city, access.as_mut())
            .expect("attack methodology");
    let effort_total = access.effort();
    AttackRun { config, discovery, enhanced, effort_basic, effort_total, access }
}

/// The paper's attack scored as Table 4 scores it (`t` = school size),
/// with a crawl error returned instead of panicking: in a sweep, a
/// crawl that dies to faults or to the detector is itself a data point.
pub fn try_attack(lab: &Lab, access: &mut dyn OsnAccess) -> Result<EvalPoint, CrawlError> {
    let config = lab.attack_config();
    let (_, _, enhanced) = attack_phases(&lab.obs, &config, lab.scenario.home_city, access)?;
    let t = config.school_size_estimate as usize;
    let truth = lab.ground_truth();
    Ok(evaluate(t, &enhanced.guessed_students(t), |u| enhanced.inferred_year(u, &config), &truth))
}

/// Basic then enhanced(+filtering) against the school `config` names,
/// whose city is `school_city`, each phase timed on `obs`; also returns
/// the effort spent by the end of basic.
pub(crate) fn attack_phases(
    obs: &Registry,
    config: &AttackConfig,
    school_city: CityId,
    access: &mut dyn OsnAccess,
) -> Result<(Discovery, Effort, Enhanced), CrawlError> {
    let discovery = {
        let _span = phase_span(obs, "crawl");
        run_basic(access, config)?
    };
    let effort_basic = access.effort();
    let t = config.school_size_estimate as usize;
    let enhanced = {
        let _span = phase_span(obs, "infer");
        run_enhanced(
            access,
            &discovery,
            &EnhanceOptions { t, filtering: true, enhance: true, school_city },
        )?
    };
    Ok((discovery, effort_basic, enhanced))
}

/// Evaluate a guessed set for one threshold.
pub fn eval_at(
    t: usize,
    guessed: &[hsp_graph::UserId],
    inferred: impl Fn(hsp_graph::UserId) -> Option<i32>,
    truth: &GroundTruth,
) -> EvalPoint {
    evaluate(t, guessed, inferred, truth)
}

/// [`eval_at`] with the "evaluate" phase recorded on `reg`.
pub fn eval_at_observed(
    reg: &Registry,
    t: usize,
    guessed: &[hsp_graph::UserId],
    inferred: impl Fn(hsp_graph::UserId) -> Option<i32>,
    truth: &GroundTruth,
) -> EvalPoint {
    let _span = phase_span(reg, "evaluate");
    evaluate(t, guessed, inferred, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lab_builds_and_runs_tiny_attack() {
        let mut lab = Lab::facebook(&ScenarioConfig::tiny());
        let run = full_attack(&mut lab, false);
        assert!(!run.discovery.core.is_empty());
        assert!(run.effort_total.total() > run.effort_basic.total());
        let truth = lab.ground_truth();
        let t = run.config.school_size_estimate as usize;
        let point = eval_at(
            t,
            &run.enhanced.guessed_students(t),
            |u| run.enhanced.inferred_year(u, &run.config),
            &truth,
        );
        assert!(point.found > 0);
    }

    #[test]
    fn tcp_and_direct_crawlers_agree_on_seeds() {
        let mut lab = Lab::facebook(&ScenarioConfig::tiny());
        let school = lab.scenario.school;
        let direct_seeds = lab.crawler(2, "d").boxed().collect_seeds(school).unwrap();
        lab.serve().unwrap();
        let tcp_seeds = lab.crawler(2, "t").tcp(true).boxed().collect_seeds(school).unwrap();
        // Account-keyed sampling depends on account *index*; each crawl
        // gets fresh ones but the union across two accounts agrees.
        assert_eq!(direct_seeds, tcp_seeds);
    }
}
