//! City-wide concurrent attack harness over a metro-scale world.
//!
//! [`crate::runner::Lab`] mounts one calibrated [`hsp_synth::Scenario`];
//! this module mounts a [`hsp_synth::MetroConfig`] world (dozens of
//! schools sharing one city, up to millions of users) on a single
//! platform and attacks *every* school, each through its own
//! [`ParallelCrawler`] with per-school fake accounts. School runs are
//! independent — separate account seats, per-school seeds — so the
//! per-school outcomes are bit-identical regardless of worker count or
//! school scheduling order, which is what lets the metro bench assert
//! 1-worker vs 8-worker determinism at city scale.

use hsp_core::{
    evaluate, run_basic, run_enhanced, AttackConfig, EnhanceOptions, EvalPoint, GroundTruth,
};
use hsp_crawler::{AccountSeat, OsnAccess, ParallelCrawler};
use hsp_graph::{CityId, Network, SchoolId, UserId};
use hsp_http::{DirectExchange, Handler, ResilientExchange, RetryPolicy, RetryStats};
use hsp_obs::trace::{fnv1a_chain, FNV_OFFSET};
use hsp_obs::{Registry, VirtualClock};
use hsp_platform::{Platform, PlatformConfig};
use hsp_policy::FacebookPolicy;
use hsp_synth::{metro_sharded, MetroConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A metro world mounted on one platform, ready for a city-wide attack.
pub struct MetroLab {
    pub config: MetroConfig,
    pub network: Arc<Network>,
    pub city: CityId,
    pub schools: Vec<SchoolId>,
    pub obs: Arc<Registry>,
    pub platform: Arc<Platform>,
    handler: Arc<dyn Handler>,
}

/// What the attacker extracted from one school (the per-school Table-2 /
/// Table-4 analogue).
#[derive(Clone, Debug)]
pub struct SchoolOutcome {
    pub school: SchoolId,
    /// Ground-truth roster size.
    pub roster: usize,
    /// Search seeds (Table 2's |S|).
    pub seeds: usize,
    /// Core after filtering (Table 2's |C|).
    pub core: usize,
    /// Candidate set size (Table 2's |N(C)|-ish).
    pub candidates: usize,
    /// Scored guess list at t = enrollment estimate (Table 4).
    pub eval: EvalPoint,
    /// The guessed students themselves, in rank order.
    pub guessed: Vec<UserId>,
    /// HTTP requests this school's crawl cost.
    pub requests: u64,
}

impl SchoolOutcome {
    /// FNV-1a digest of everything Table 4 would print for this school:
    /// the exact guessed set (in order) plus the scored counts. Equal
    /// digests ⇒ bit-identical per-school results.
    pub fn digest(&self) -> u64 {
        let head = [self.school.0 as u64, self.guessed.len() as u64];
        let tail = [
            self.eval.found as u64,
            self.eval.correct_year as u64,
            self.eval.guessed as u64,
            self.seeds as u64,
            self.core as u64,
            self.candidates as u64,
        ];
        head.into_iter()
            .chain(self.guessed.iter().map(|u| u.0))
            .chain(tail)
            .fold(FNV_OFFSET, |h, v| fnv1a_chain(h, &v.to_le_bytes()))
    }
}

/// City-wide aggregate exposure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MetroExposure {
    pub schools: usize,
    pub students_total: usize,
    pub students_found: usize,
    pub correct_year: usize,
    pub requests_total: u64,
}

impl MetroExposure {
    pub fn pct_found(&self) -> f64 {
        if self.students_total == 0 {
            0.0
        } else {
            100.0 * self.students_found as f64 / self.students_total as f64
        }
    }
}

impl MetroLab {
    /// Generate a metro world with `threads` generator threads and mount
    /// it on a Facebook-policy platform.
    pub fn facebook(config: &MetroConfig, threads: usize) -> MetroLab {
        Self::mount(metro_sharded(config, threads))
    }

    /// Mount an already-generated world (the bench generates once and
    /// reuses it across worker-count runs).
    pub fn mount(world: hsp_synth::MetroWorld) -> MetroLab {
        let hsp_synth::MetroWorld { config, network, city, schools } = world;
        let obs = Arc::new(Registry::new());
        let platform = Platform::with_registry(
            Arc::new(network),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig::default(),
            Arc::clone(&obs),
        );
        let handler = platform.into_handler();
        MetroLab {
            config,
            network: Arc::clone(&platform.network),
            city,
            schools,
            obs,
            platform,
            handler,
        }
    }

    /// Ground truth for one school, straight off the sealed columns.
    pub fn ground_truth(&self, school: SchoolId) -> GroundTruth {
        let roster = self.network.roster(school);
        let years = roster
            .iter()
            .filter_map(|&u| self.network.student_grad_year(u).map(|g| (u, g)))
            .collect();
        GroundTruth::new(roster, years)
    }

    /// A per-school parallel crawler: `accounts` fake accounts crawled
    /// by `workers` deterministic workers, labelled so account names
    /// never collide across schools.
    fn school_crawler(
        &self,
        school_idx: usize,
        accounts: usize,
        workers: usize,
        seed: u64,
    ) -> Box<dyn OsnAccess> {
        let stats = Arc::new(RetryStats::default());
        let seed = seed ^ (school_idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let seat = {
            let handler = Arc::clone(&self.handler);
            let stats = Arc::clone(&stats);
            let tracer = Arc::clone(self.obs.tracer());
            move |i: u64| {
                let clock = VirtualClock::shared();
                AccountSeat {
                    exchange: ResilientExchange::with_stats(
                        DirectExchange::new(Arc::clone(&handler)),
                        RetryPolicy::seeded(seed ^ i),
                        Arc::clone(&clock),
                        Arc::clone(&stats),
                    )
                    .with_tracer(Arc::clone(&tracer)),
                    clock: Some(clock),
                }
            }
        };
        let seats: Vec<_> = (0..accounts as u64).map(&seat).collect();
        let mut next = accounts as u64;
        let factory = move || {
            next += 1;
            seat(next)
        };
        Box::new(
            ParallelCrawler::builder(&format!("m{school_idx:02}"))
                .workers(workers)
                .observability(&self.obs)
                .retry_stats(stats)
                .recruit_with(factory, 8)
                .build(seats)
                .expect("metro crawler setup"),
        )
    }

    /// Run the full basic+enhanced attack against one school.
    pub fn attack_school(&self, school_idx: usize, workers: usize, seed: u64) -> SchoolOutcome {
        let school = self.schools[school_idx];
        let mut access = self.school_crawler(school_idx, 4, workers, seed);
        let config = AttackConfig::new(
            school,
            self.network.senior_class_year(),
            self.config.students_per_school,
        );
        let t = config.school_size_estimate as usize;
        let discovery = run_basic(access.as_mut(), &config).expect("metro basic");
        let enhanced = run_enhanced(
            access.as_mut(),
            &discovery,
            &EnhanceOptions { t, filtering: true, enhance: true, school_city: self.city },
        )
        .expect("metro enhanced");
        let truth = self.ground_truth(school);
        let guessed = enhanced.guessed_students(t);
        let eval = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
        SchoolOutcome {
            school,
            roster: truth.len(),
            seeds: discovery.seeds.len(),
            core: discovery.core.len(),
            candidates: discovery.candidate_count(),
            eval,
            guessed,
            requests: access.effort().total(),
        }
    }

    /// Attack every school in the city concurrently: up to
    /// `school_threads` schools in flight at once, each crawled by
    /// `workers` parallel-crawler workers. Outcomes are returned in
    /// school order and are independent of both thread counts.
    pub fn city_attack(
        &self,
        workers: usize,
        school_threads: usize,
        seed: u64,
    ) -> Vec<SchoolOutcome> {
        let n = self.schools.len();
        let slots: Vec<Mutex<Option<SchoolOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..school_threads.clamp(1, n) {
                scope.spawn(|| loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let outcome = self.attack_school(idx, workers, seed);
                    *slots[idx].lock().expect("slot") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot").expect("every school attacked"))
            .collect()
    }

    /// Fold per-school outcomes into the city-wide exposure aggregate.
    pub fn exposure(outcomes: &[SchoolOutcome]) -> MetroExposure {
        MetroExposure {
            schools: outcomes.len(),
            students_total: outcomes.iter().map(|o| o.roster).sum(),
            students_found: outcomes.iter().map(|o| o.eval.found).sum(),
            correct_year: outcomes.iter().map(|o| o.eval.correct_year).sum(),
            requests_total: outcomes.iter().map(|o| o.requests).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MetroConfig {
        MetroConfig {
            schools: 2,
            students_per_school: 60,
            alumni_per_school: 30,
            parents_per_school: 10,
            pool_users: 500,
            ..MetroConfig::tiny()
        }
    }

    #[test]
    fn city_attack_is_worker_and_schedule_invariant() {
        let a = MetroLab::facebook(&small_cfg(), 2).city_attack(1, 1, 7);
        let b = MetroLab::facebook(&small_cfg(), 1).city_attack(4, 2, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest(), y.digest(), "school {:?} drifted", x.school);
            assert_eq!(x.guessed, y.guessed);
        }
    }

    #[test]
    fn city_attack_finds_students_in_every_school() {
        let lab = MetroLab::facebook(&small_cfg(), 2);
        let outcomes = lab.city_attack(2, 2, 7);
        for o in &outcomes {
            assert!(o.seeds > 0, "no seeds for {:?}", o.school);
            assert!(o.eval.found > 0, "nothing found for {:?}", o.school);
            assert!(o.eval.found <= o.roster);
        }
        let exposure = MetroLab::exposure(&outcomes);
        assert_eq!(exposure.schools, 2);
        assert_eq!(exposure.students_total, 120);
        assert!(exposure.pct_found() > 10.0);
    }
}
