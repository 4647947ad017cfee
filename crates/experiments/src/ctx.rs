//! Execution context: caches one full attack per school so `all` runs
//! each expensive crawl exactly once.

use crate::runner::{full_attack_with, AttackRun, Lab};
use hsp_obs::Registry;
use hsp_synth::ScenarioConfig;
use std::collections::HashMap;
use std::sync::Arc;

/// A school's lab + completed attack.
pub struct SchoolRun {
    pub lab: Lab,
    pub run: AttackRun,
}

/// Shared experiment context.
pub struct Ctx {
    /// Run the crawl over real loopback TCP instead of in-process.
    pub tcp: bool,
    /// Worker threads driving the crawl's account queues, in-process or
    /// over TCP. 1 is the paper's crawl; results are bit-identical at
    /// any worker count, only the modeled makespan shrinks (see
    /// `hsp_crawler::scheduler`).
    pub workers: usize,
    /// One registry spanning every cached school run, so a metrics
    /// snapshot after an experiment covers all work it triggered.
    pub obs: Arc<Registry>,
    runs: HashMap<&'static str, SchoolRun>,
}

impl Ctx {
    pub fn new(tcp: bool) -> Ctx {
        Self::with_workers(tcp, 1)
    }

    pub fn with_workers(tcp: bool, workers: usize) -> Ctx {
        Ctx { tcp, workers: workers.max(1), obs: Registry::shared(), runs: HashMap::new() }
    }

    /// The scenario config for a school label.
    pub fn config_for(which: &str) -> ScenarioConfig {
        match which {
            "HS1" => ScenarioConfig::hs1(),
            "HS2" => ScenarioConfig::hs2(),
            "HS3" => ScenarioConfig::hs3(),
            "TINY" => ScenarioConfig::tiny(),
            other => panic!("unknown school {other}"),
        }
    }

    /// Get (running if needed) the standard full attack on a school.
    pub fn school(&mut self, which: &'static str) -> &SchoolRun {
        let tcp = self.tcp;
        let workers = self.workers;
        let obs = Arc::clone(&self.obs);
        self.runs.entry(which).or_insert_with(|| {
            eprintln!("[ctx] generating + attacking {which} ...");
            let mut lab = Lab::facebook_with_registry(&Self::config_for(which), obs);
            lab.serve_if(tcp);
            let accounts = lab.paper_account_count();
            let access = lab.crawler(accounts, "atk").workers(workers).tcp(tcp).boxed();
            let run = full_attack_with(&lab, access);
            SchoolRun { lab, run }
        })
    }

    /// Mutable access (some experiments continue crawling).
    pub fn school_mut(&mut self, which: &'static str) -> &mut SchoolRun {
        self.school(which);
        self.runs.get_mut(which).expect("just inserted")
    }
}
