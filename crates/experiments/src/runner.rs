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
    AccountSeat, AdaptiveStrategy, CrawlError, Effort, OsnAccess, ParallelCrawler, Politeness,
};
use hsp_http::{
    ChaosPlan, ChaosStats, ChaosTransport, Client, DirectExchange, Exchange, Handler,
    ResilientExchange, RetryPolicy, RetryStats, Server, ServerConfig,
};
use hsp_obs::{Registry, SpanGuard, VirtualClock};
use hsp_platform::{DefenseConfig, FaultPlan, MutationPlan, Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, Policy};
use hsp_synth::{generate, ChurnModel, Scenario, ScenarioConfig};
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
        Self::with_policy(cfg, Arc::new(FacebookPolicy::new()))
    }

    /// [`Lab::facebook`] recording into an existing registry.
    pub fn facebook_with_registry(cfg: &ScenarioConfig, obs: Arc<Registry>) -> Lab {
        Self::with_policy_and_registry(cfg, Arc::new(FacebookPolicy::new()), obs)
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
        let scenario = generate(cfg);
        let obs = Registry::shared();
        let platform = Platform::with_registry(
            Arc::new(scenario.network.clone()),
            Arc::new(FacebookPolicy::new()),
            config,
            Arc::clone(&obs),
        );
        let handler = platform.into_handler();
        Lab { scenario, platform, obs, handler, server: None }
    }

    /// Build with an explicit policy engine.
    pub fn with_policy(cfg: &ScenarioConfig, policy: Arc<dyn Policy>) -> Lab {
        Self::with_policy_and_registry(cfg, policy, Registry::shared())
    }

    pub fn with_policy_and_registry(
        cfg: &ScenarioConfig,
        policy: Arc<dyn Policy>,
        obs: Arc<Registry>,
    ) -> Lab {
        let scenario = {
            let _span = phase_span(&obs, "generate");
            let started = std::time::Instant::now();
            let scenario = generate(cfg);
            let us = started.elapsed().as_micros().max(1);
            let rate = scenario.network.user_count() as u128 * 1_000_000 / us;
            obs.gauge("synth_users_per_sec").set(rate as i64);
            scenario
        };
        Self::from_scenario_with_registry(scenario, policy, obs)
    }

    /// Mount an already-generated scenario (reuse across policy variants).
    pub fn from_scenario(scenario: Scenario, policy: Arc<dyn Policy>) -> Lab {
        Self::from_scenario_with_registry(scenario, policy, Registry::shared())
    }

    pub fn from_scenario_with_registry(
        scenario: Scenario,
        policy: Arc<dyn Policy>,
        obs: Arc<Registry>,
    ) -> Lab {
        let platform = Platform::with_registry(
            Arc::new(scenario.network.clone()),
            policy,
            PlatformConfig::default(),
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
        CrawlerSpec {
            lab: self,
            accounts,
            label: label.to_string(),
            seed: 0,
            workers: 1,
            politeness: Politeness::default(),
            adaptive: None,
            max_accounts: 8,
            chaos: None,
            tcp: false,
        }
    }

    /// The platform handler (sibling harnesses build custom transports).
    pub(crate) fn handler(&self) -> Arc<dyn Handler> {
        self.handler.clone()
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

/// A lab crawler's settings; see [`Lab::crawler`].
pub struct CrawlerSpec<'a> {
    lab: &'a Lab,
    accounts: usize,
    label: String,
    seed: u64,
    workers: usize,
    politeness: Politeness,
    adaptive: Option<AdaptiveStrategy>,
    max_accounts: usize,
    chaos: Option<ChaosPlan>,
    tcp: bool,
}

impl CrawlerSpec<'_> {
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

    /// Sign up and log in the fleet.
    pub fn build(self) -> Attacker {
        let lab = self.lab;
        let wire: Box<dyn Fn() -> Box<dyn Exchange + Send>> = if self.tcp {
            let addr = lab.server.as_ref().expect("call serve() before a TCP crawler").addr();
            Box::new(move || Box::new(Client::new(addr)))
        } else {
            let handler = lab.handler.clone();
            Box::new(move || Box::new(DirectExchange::new(handler.clone())))
        };
        let retry_stats = Arc::new(RetryStats::default());
        let chaos_stats = Arc::new(ChaosStats::default());
        let seat = {
            let (retry_stats, chaos_stats) = (Arc::clone(&retry_stats), Arc::clone(&chaos_stats));
            let tracer = Arc::clone(lab.obs.tracer());
            let (chaos, seed) = (self.chaos, self.seed);
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
                let exchange = ResilientExchange::with_stats(
                    transport,
                    RetryPolicy::seeded(seed ^ i),
                    Arc::clone(&clock),
                    Arc::clone(&retry_stats),
                )
                .with_tracer(Arc::clone(&tracer));
                AccountSeat { exchange, clock: Some(clock) }
            }
        };
        let seats: Vec<_> = (0..self.accounts as u64).map(&seat).collect();
        let mut next = self.accounts as u64;
        let factory = move || {
            next += 1;
            seat(next)
        };
        let mut builder = ParallelCrawler::builder(&self.label)
            .workers(self.workers)
            .politeness(self.politeness)
            .observability(&lab.obs)
            .retry_stats(Arc::clone(&retry_stats))
            .recruit_with(factory, self.max_accounts);
        if let Some(strategy) = self.adaptive {
            builder = builder.adaptive(strategy);
        }
        let crawler = builder.build(seats).expect("crawler setup");
        Attacker { crawler, retry_stats, chaos_stats }
    }

    /// [`CrawlerSpec::build`], boxed for the methodology.
    pub fn boxed(self) -> Box<dyn OsnAccess> {
        Box::new(self.build().crawler)
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
    let (config, discovery, effort_basic, enhanced) =
        attack_phases(lab, access.as_mut()).expect("attack methodology");
    let effort_total = access.effort();
    AttackRun { config, discovery, enhanced, effort_basic, effort_total, access }
}

/// The paper's attack scored as Table 4 scores it (`t` = school size),
/// with a crawl error returned instead of panicking: in a sweep, a
/// crawl that dies to faults or to the detector is itself a data point.
pub fn try_attack(lab: &Lab, access: &mut dyn OsnAccess) -> Result<EvalPoint, CrawlError> {
    let (config, _, _, enhanced) = attack_phases(lab, access)?;
    let t = config.school_size_estimate as usize;
    let truth = lab.ground_truth();
    Ok(evaluate(t, &enhanced.guessed_students(t), |u| enhanced.inferred_year(u, &config), &truth))
}

/// Basic then enhanced(+filtering), each phase timed on the lab's
/// registry; also returns the effort spent by the end of basic.
pub(crate) fn attack_phases(
    lab: &Lab,
    access: &mut dyn OsnAccess,
) -> Result<(AttackConfig, Discovery, Effort, Enhanced), CrawlError> {
    let config = lab.attack_config();
    let discovery = {
        let _span = phase_span(&lab.obs, "crawl");
        run_basic(access, &config)?
    };
    let effort_basic = access.effort();
    let t = config.school_size_estimate as usize;
    let enhanced = {
        let _span = phase_span(&lab.obs, "infer");
        run_enhanced(
            access,
            &discovery,
            &EnhanceOptions {
                t,
                filtering: true,
                enhance: true,
                school_city: lab.scenario.home_city,
            },
        )?
    };
    Ok((config, discovery, effort_basic, enhanced))
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
