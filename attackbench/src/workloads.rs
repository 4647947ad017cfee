//! The three workloads. Each one sets up a world, then runs complete
//! attacks on it on demand, untraced or with the seam probes mounted.

use crate::attack::{self, mount, Attacked, Target};
use crate::layers::{self, JournalFigures, Layers, LiveReplay, Probes, Retimed};
use crate::probe::{Captured, ProbeHandler, ProbePolicy, TransportLog};
use crate::stats::{fnv, FNV_OFFSET};
use hs_profiler::core::{AttackConfig, CoreUser, GroundTruth};
use hs_profiler::crawler::journal::state_digest;
use hs_profiler::crawler::{fold_state, recover, Effort, Journal};
use hs_profiler::experiments::crash_lab::CRASH_SYNC_EVERY;
use hs_profiler::experiments::runner::Lab;
use hs_profiler::graph::{CityId, Network, SchoolId};
use hs_profiler::http::{Client, DirectExchange, Handler, Server, ServerConfig};
use hs_profiler::obs::Registry;
use hs_profiler::platform::{MutationPlan, Platform};
use hs_profiler::policy::{FacebookPolicy, Policy};
use hs_profiler::synth::{generate, metro_sharded, MetroConfig, ScenarioConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed set-up.
pub struct Setup {
    pub secs: f64,
    pub build_s: f64,
    pub users: u64,
}

/// One complete attack: an outcome digest, its request count, and the
/// transport timer's samples.
pub struct AttackRecord {
    pub wall_s: f64,
    pub requests: u64,
    pub samples: Vec<u64>,
    pub failed: u64,
    /// Every school's outcome digest (one on the HS1 workloads).
    pub school_digests: Vec<u64>,
    pub found: usize,
    pub roster: usize,
    /// Live world only: the mutation engine's state digest and applied
    /// event count after the attack.
    pub mutations: Option<(u64, usize)>,
    pub layers: Option<Layers>,
}

impl AttackRecord {
    /// What every attack of a run must reproduce exactly.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for &d in &self.school_digests {
            fnv(&mut h, d);
        }
        fnv(&mut h, self.requests);
        if let Some((state, applied)) = self.mutations {
            fnv(&mut h, state);
            fnv(&mut h, applied as u64);
        }
        h
    }
}

/// Results pinned from the parent commit at the configs' own seeds.
pub struct Pinned {
    pub found: usize,
    pub roster: usize,
    pub requests: u64,
    pub school_digests: &'static [u64],
    pub mutations: Option<(u64, usize)>,
}

impl Pinned {
    pub fn check(&self, r: &AttackRecord) -> Result<(), String> {
        let got = (r.found, r.roster, r.requests, r.school_digests.as_slice(), r.mutations);
        let want = (self.found, self.roster, self.requests, self.school_digests, self.mutations);
        if got == want {
            Ok(())
        } else {
            Err(format!("pinned results differ: got {got:x?}, want {want:x?}"))
        }
    }
}

/// Threads and connections the benchmark itself opens.
pub struct Footprint {
    /// Threads that generate the load.
    pub load_threads: usize,
    /// Workers of the server's pool, 0 in-process. The pool also has
    /// an accept thread.
    pub server_workers: usize,
    pub connections: usize,
    /// Threads with work at once: the load threads plus, over the
    /// wire, the one server worker serving the request in flight.
    pub busy_threads: usize,
}

impl Footprint {
    fn in_process(threads: usize) -> Footprint {
        Footprint {
            load_threads: threads,
            server_workers: 0,
            connections: 0,
            busy_threads: threads,
        }
    }

    /// A run whose load comes from one thread is pinned, with every
    /// thread it starts, to one CPU (see [`crate::affinity`]).
    pub fn one_cpu(&self) -> bool {
        self.load_threads == 1
    }

    pub fn describe(&self) -> String {
        let mut s = format!(
            "benchmark opens {} load thread(s) and {} connection(s)",
            self.load_threads, self.connections
        );
        if self.server_workers > 0 {
            s += &format!(
                ", and a server pool of {} workers + 1 accept thread; the {} keep-alive \
                 connections hold {} workers, and with one request in flight one worker \
                 is busy at a time",
                self.server_workers, self.connections, self.connections
            );
        }
        s += &format!("; at most {} threads busy at once", self.busy_threads);
        if self.one_cpu() {
            s += "; pinned, with every thread it starts, to the CPU the run starts on";
        }
        s
    }
}

pub trait Workload {
    fn footprint(&self) -> Footprint;
    /// Which work counts as set-up and which is timed.
    fn describe(&self) -> String;
    /// Build the world and mount it; each call replaces the last.
    fn setup(&mut self) -> Result<Setup, String>;
    /// Run one complete attack. `capture` keeps its inputs for
    /// [`Workload::retime`]; it implies `traced`.
    fn attack(&mut self, traced: bool, capture: bool) -> Result<AttackRecord, String>;
    /// Re-time the leaf functions on the captured attack's inputs.
    fn retime(&mut self) -> Result<Retimed, String>;
    /// The parent commit's results, when this run uses default seeds.
    fn pinned(&self) -> Option<&Pinned>;
    /// Stop what set-up started.
    fn finish(&mut self) {}
}

fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// Ground truth for one school, read off the sealed columns.
fn truth(net: &Network, school: SchoolId) -> GroundTruth {
    let roster = net.roster(school);
    let years = roster.iter().filter_map(|&u| net.student_grad_year(u).map(|g| (u, g))).collect();
    GroundTruth::new(roster, years)
}

fn add_effort(sum: &mut Effort, e: &Effort) {
    sum.auth_requests += e.auth_requests;
    sum.seed_requests += e.seed_requests;
    sum.profile_requests += e.profile_requests;
    sum.friend_list_requests += e.friend_list_requests;
}

/// Mount `net` for one attack: plain, or with both seam probes.
fn mount_for(
    net: &Arc<Network>,
    plan: &MutationPlan,
    traced: bool,
    capture: bool,
) -> (Arc<Platform>, Arc<dyn Handler>, Option<Probes>) {
    if !traced {
        let (platform, handler) = mount(net, Arc::new(FacebookPolicy::new()), plan.clone());
        return (platform, handler, None);
    }
    let policy = Arc::new(ProbePolicy::default());
    let (platform, handler) = mount(net, Arc::clone(&policy) as Arc<dyn Policy>, plan.clone());
    let handler = ProbeHandler::new(handler, Arc::clone(&platform.mutations));
    handler.capture.store(capture, Ordering::Relaxed);
    let probes = Probes { policy, handler: Arc::clone(&handler) };
    (platform, handler, Some(probes))
}

/// The per-attack layer fields every workload fills the same way.
fn attack_layers(a: &Attacked, build_ns: u64, thread_ns: u64, samples: &[u64]) -> Layers {
    Layers {
        thread_ns,
        exchange_ns: samples.iter().sum(),
        exchange_samples: samples.to_vec(),
        access_calls: a.access_calls,
        build_ns,
        access_ns: a.access_ns,
        core_wall_ns: a.core_wall_ns,
        effort: a.effort,
        candidates: a.outcome.candidates as u64,
        ..Layers::default()
    }
}

/// Inputs of the captured attack, kept for re-timing.
#[derive(Default)]
struct Capture {
    responses: Vec<Captured>,
    cores: Vec<(AttackConfig, Vec<CoreUser>)>,
    live: Option<LiveReplay>,
}

// ---- metro_city ----------------------------------------------------------

struct MetroWorldRef {
    net: Arc<Network>,
    city: CityId,
    schools: Vec<SchoolId>,
}

/// `MetroConfig::city()` built by `metro_sharded`; every school attacked
/// in-process with 4 accounts, `nproc` schools in flight.
pub struct MetroCity {
    cfg: MetroConfig,
    nproc: usize,
    attacker_seed: u64,
    world: Option<MetroWorldRef>,
    capture: Capture,
    pinned: Option<Pinned>,
}

impl MetroCity {
    pub fn new(
        cfg: MetroConfig,
        nproc: usize,
        attacker_seed: u64,
        pinned: Option<Pinned>,
    ) -> MetroCity {
        MetroCity { cfg, nproc, attacker_seed, world: None, capture: Capture::default(), pinned }
    }
}

struct SchoolRun {
    attacked: Attacked,
    wall_ns: u64,
    build_ns: u64,
    samples: Vec<u64>,
    failed: u64,
}

#[allow(clippy::too_many_arguments)]
fn metro_school(
    world: &MetroWorldRef,
    students_per_school: u32,
    idx: usize,
    handler: &Arc<dyn Handler>,
    obs: &Registry,
    attacker_seed: u64,
    traced: bool,
    capture: bool,
) -> Result<SchoolRun, String> {
    let started = Instant::now();
    let log = Arc::new(TransportLog::default());
    // Seeded per school as `MetroLab::school_crawler` does.
    let seed = attacker_seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let h = Arc::clone(handler);
    let mut crawler = attack::crawler(
        &format!("m{idx:02}"),
        4,
        seed,
        obs,
        &log,
        move || DirectExchange::new(Arc::clone(&h)),
        None,
    )
    .map_err(err)?;
    let build_ns = ns(started);
    let school = world.schools[idx];
    let target = Target {
        config: AttackConfig::new(school, world.net.senior_class_year(), students_per_school),
        city: world.city,
    };
    let attacked =
        attack::attack(&mut crawler, &target, || truth(&world.net, school), traced, capture)
            .map_err(err)?;
    let wall_ns = ns(started);
    Ok(SchoolRun { attacked, wall_ns, build_ns, samples: log.samples(), failed: log.failed() })
}

impl Workload for MetroCity {
    fn footprint(&self) -> Footprint {
        Footprint::in_process(self.nproc)
    }

    fn describe(&self) -> String {
        format!(
            "set-up: metro_sharded({} users, {} schools) on {} threads + one platform mount; \
             timed: a fresh mount's city attack, {} schools in flight, 4 accounts and \
             1 worker per school, in-process (search-pool fills included)",
            self.cfg.total_users(),
            self.cfg.schools,
            self.nproc,
            self.nproc,
        )
    }

    fn setup(&mut self) -> Result<Setup, String> {
        // Free the previous world before building the next one.
        self.world = None;
        let started = Instant::now();
        let world = metro_sharded(&self.cfg, self.nproc);
        let build_s = started.elapsed().as_secs_f64();
        let net = Arc::new(world.network);
        let mounted = mount(&net, Arc::new(FacebookPolicy::new()), MutationPlan::none());
        let secs = started.elapsed().as_secs_f64();
        drop(mounted);
        let users = net.user_count() as u64;
        self.world = Some(MetroWorldRef { net, city: world.city, schools: world.schools });
        Ok(Setup { secs, build_s, users })
    }

    fn attack(&mut self, traced: bool, capture: bool) -> Result<AttackRecord, String> {
        let world = self.world.as_ref().ok_or("metro_city: attack before set-up")?;
        let (platform, handler, probes) =
            mount_for(&world.net, &MutationPlan::none(), traced, capture);
        let before = probes.as_ref().map(Probes::reading);
        let n = world.schools.len();
        let slots: Vec<Mutex<Option<Result<SchoolRun, String>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        // Schools are handed to the threads in index order.
        let cursor = AtomicUsize::new(0);
        let next = || Some(cursor.fetch_add(1, Ordering::Relaxed)).filter(|&idx| idx < n);
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.nproc.clamp(1, n) {
                scope.spawn(|| {
                    while let Some(idx) = next() {
                        let run = metro_school(
                            world,
                            self.cfg.students_per_school,
                            idx,
                            &handler,
                            &platform.obs,
                            self.attacker_seed,
                            traced,
                            capture,
                        );
                        *slots[idx].lock().expect("school slot poisoned") = Some(run);
                    }
                });
            }
        });
        let wall_s = started.elapsed().as_secs_f64();
        let runs = slots
            .into_iter()
            .map(|s| s.into_inner().expect("school slot poisoned").expect("every school ran"))
            .collect::<Result<Vec<_>, _>>()?;
        let mut record = AttackRecord {
            wall_s,
            requests: runs.iter().map(|r| r.attacked.outcome.requests).sum(),
            samples: runs.iter().flat_map(|r| r.samples.iter().copied()).collect(),
            failed: runs.iter().map(|r| r.failed).sum(),
            school_digests: runs.iter().map(|r| r.attacked.outcome.digest()).collect(),
            found: runs.iter().map(|r| r.attacked.outcome.eval.found).sum(),
            roster: runs.iter().map(|r| r.attacked.outcome.roster).sum(),
            mutations: None,
            layers: None,
        };
        if let Some(probes) = &probes {
            // Summed over the schools: thread time.
            let mut sum = Layers { exchange_samples: record.samples.clone(), ..Layers::default() };
            for r in &runs {
                let a = &r.attacked;
                sum.thread_ns += r.wall_ns;
                sum.exchange_ns += r.samples.iter().sum::<u64>();
                sum.build_ns += r.build_ns;
                sum.access_ns += a.access_ns;
                sum.core_wall_ns += a.core_wall_ns;
                sum.candidates += a.outcome.candidates as u64;
                for (total, calls) in sum.access_calls.iter_mut().zip(a.access_calls) {
                    *total += calls;
                }
                add_effort(&mut sum.effort, &a.effort);
            }
            probes.fill(&before.unwrap_or_default(), &mut sum);
            record.layers = Some(sum);
            if capture {
                probes.handler.capture.store(false, Ordering::Relaxed);
                self.capture = Capture {
                    responses: probes.handler.stats.take_captured(),
                    cores: runs.into_iter().filter_map(|r| r.attacked.core).collect(),
                    live: None,
                };
            }
        }
        Ok(record)
    }

    fn retime(&mut self) -> Result<Retimed, String> {
        let world = self.world.as_ref().ok_or("metro_city: retime before set-up")?;
        let c = std::mem::take(&mut self.capture);
        layers::retime(&c.responses, &world.net, None, false, &c.cores)
    }

    fn pinned(&self) -> Option<&Pinned> {
        self.pinned.as_ref()
    }
}

// ---- the HS1 workloads ---------------------------------------------------

/// One generated school world.
struct School {
    net: Arc<Network>,
    school: SchoolId,
    city: CityId,
    estimate: u32,
}

impl School {
    fn generate(cfg: &ScenarioConfig) -> School {
        let s = generate(cfg);
        School {
            school: s.school,
            city: s.home_city,
            estimate: s.config.public_enrollment_estimate,
            net: Arc::new(s.network),
        }
    }

    fn target(&self) -> Target {
        Target {
            config: AttackConfig::new(self.school, self.net.senior_class_year(), self.estimate),
            city: self.city,
        }
    }
}

/// One attack on a single school as an [`AttackRecord`].
fn school_record(
    attacked: &Attacked,
    wall_ns: u64,
    build_ns: u64,
    log: &TransportLog,
    traced: bool,
) -> AttackRecord {
    let samples = log.samples();
    let layers = traced.then(|| attack_layers(attacked, build_ns, wall_ns, &samples));
    AttackRecord {
        wall_s: wall_ns as f64 / 1e9,
        requests: attacked.outcome.requests,
        failed: log.failed(),
        samples,
        school_digests: vec![attacked.outcome.digest()],
        found: attacked.outcome.eval.found,
        roster: attacked.outcome.roster,
        mutations: None,
        layers,
    }
}

/// `ScenarioConfig::hs1()` with the scenario-calibrated churn plan,
/// attacked in-process on a fresh platform per attack.
pub struct LiveHs1 {
    cfg: ScenarioConfig,
    plan: MutationPlan,
    attacker_seed: u64,
    world: Option<School>,
    capture: Capture,
    pinned: Option<Pinned>,
}

impl LiveHs1 {
    pub fn new(cfg: ScenarioConfig, attacker_seed: u64, pinned: Option<Pinned>) -> LiveHs1 {
        let plan = Lab::churn_plan(&cfg, 1.0);
        LiveHs1 { cfg, plan, attacker_seed, world: None, capture: Capture::default(), pinned }
    }
}

impl Workload for LiveHs1 {
    fn footprint(&self) -> Footprint {
        Footprint::in_process(1)
    }

    fn describe(&self) -> String {
        format!(
            "set-up: generate({}, {} users) + one platform mount with the calibrated churn \
             plan; timed: a fresh live mount's attack, 2 accounts, 1 worker, in-process \
             (generation rebuilds and search-pool fills included)",
            self.cfg.name,
            self.cfg.expected_users(),
        )
    }

    fn setup(&mut self) -> Result<Setup, String> {
        self.world = None;
        let started = Instant::now();
        let world = School::generate(&self.cfg);
        let build_s = started.elapsed().as_secs_f64();
        let mounted = mount(&world.net, Arc::new(FacebookPolicy::new()), self.plan.clone());
        let secs = started.elapsed().as_secs_f64();
        drop(mounted);
        let users = world.net.user_count() as u64;
        self.world = Some(world);
        Ok(Setup { secs, build_s, users })
    }

    fn attack(&mut self, traced: bool, capture: bool) -> Result<AttackRecord, String> {
        let world = self.world.as_ref().ok_or("live_hs1: attack before set-up")?;
        let (platform, handler, probes) = mount_for(&world.net, &self.plan, traced, capture);
        let before = probes.as_ref().map(Probes::reading);
        let log = Arc::new(TransportLog::default());
        let started = Instant::now();
        let mut crawler = attack::crawler(
            "live",
            2,
            self.attacker_seed,
            &platform.obs,
            &log,
            move || DirectExchange::new(Arc::clone(&handler)),
            None,
        )
        .map_err(err)?;
        let build_ns = ns(started);
        let target = world.target();
        let attacked = attack::attack(
            &mut crawler,
            &target,
            || truth(&world.net, world.school),
            traced,
            capture,
        )
        .map_err(err)?;
        let wall_ns = ns(started);
        drop(crawler);
        let engine = &platform.mutations;
        let mut record = school_record(&attacked, wall_ns, build_ns, &log, traced);
        record.mutations = Some((engine.state_digest(), engine.applied_count()));
        if let (Some(probes), Some(layers)) = (&probes, record.layers.as_mut()) {
            probes.fill(&before.unwrap_or_default(), layers);
            layers.mutations_scheduled = engine.event_count() as u64;
            layers.mutations_applied = engine.applied_count() as u64;
            if capture {
                probes.handler.capture.store(false, Ordering::Relaxed);
                self.capture = Capture {
                    responses: probes.handler.stats.take_captured(),
                    cores: attacked.core.into_iter().collect(),
                    live: Some(LiveReplay {
                        plan: self.plan.clone(),
                        state_digest: engine.state_digest(),
                    }),
                };
            }
        }
        Ok(record)
    }

    fn retime(&mut self) -> Result<Retimed, String> {
        let world = self.world.as_ref().ok_or("live_hs1: retime before set-up")?;
        let c = std::mem::take(&mut self.capture);
        layers::retime(&c.responses, &world.net, c.live.as_ref(), false, &c.cores)
    }

    fn pinned(&self) -> Option<&Pinned> {
        self.pinned.as_ref()
    }
}

/// A platform served by one long-lived loopback server.
struct Served {
    platform: Arc<Platform>,
    server: Server,
    probes: Option<Probes>,
}

impl Served {
    fn traced(&self) -> bool {
        self.probes.is_some()
    }

    fn start(world: &School, traced: bool) -> Result<Served, String> {
        let (platform, handler, probes) =
            mount_for(&world.net, &MutationPlan::none(), traced, false);
        let config =
            ServerConfig { metrics: Some(Arc::clone(&platform.obs)), ..ServerConfig::default() };
        let server = Server::start_with(handler, config).map_err(err)?;
        Ok(Served { platform, server, probes })
    }

    fn server_counts(&self) -> (u64, u64) {
        let obs = &self.platform.obs;
        let shed = |reason: &str| obs.counter_with("http_server_shed_total", &[("reason", reason)]);
        (
            obs.counter("http_server_connections_total").get(),
            shed("queue_full").get() + shed("max_connections").get(),
        )
    }
}

/// `ScenarioConfig::hs1()` behind one hsp-http `Server` on loopback,
/// attacked by a sequence of fresh journaled strangers.
pub struct TcpCrowd {
    cfg: ScenarioConfig,
    attacker_seed: u64,
    journal_path: PathBuf,
    world: Option<School>,
    /// The one running server: untraced, or with the probes mounted.
    served: Option<Served>,
    strangers: usize,
    capture: Capture,
    pinned: Option<Pinned>,
}

impl TcpCrowd {
    pub fn new(
        cfg: ScenarioConfig,
        attacker_seed: u64,
        journal_path: PathBuf,
        pinned: Option<Pinned>,
    ) -> TcpCrowd {
        TcpCrowd {
            cfg,
            attacker_seed,
            journal_path,
            world: None,
            served: None,
            strangers: 0,
            capture: Capture::default(),
            pinned,
        }
    }

    fn stop_server(&mut self) {
        if let Some(served) = self.served.take() {
            served.server.shutdown();
        }
    }
}

impl Workload for TcpCrowd {
    fn footprint(&self) -> Footprint {
        Footprint {
            load_threads: 1,
            server_workers: ServerConfig::default().workers,
            connections: 2,
            busy_threads: 2,
        }
    }

    fn describe(&self) -> String {
        format!(
            "set-up: generate({}, {} users) + platform mount + hsp-http Server start \
             (default config); timed: one fresh stranger's attack over loopback, \
             2 accounts on 2 keep-alive connections (connects included), 1 worker, \
             journaled to {} with fdatasync every {CRASH_SYNC_EVERY} groups; closed loop, \
             one request in flight",
            self.cfg.name,
            self.cfg.expected_users(),
            self.journal_path.display(),
        )
    }

    fn setup(&mut self) -> Result<Setup, String> {
        self.stop_server();
        self.world = None;
        let started = Instant::now();
        let world = School::generate(&self.cfg);
        let build_s = started.elapsed().as_secs_f64();
        let served = Served::start(&world, false)?;
        let secs = started.elapsed().as_secs_f64();
        let users = world.net.user_count() as u64;
        self.served = Some(served);
        self.world = Some(world);
        Ok(Setup { secs, build_s, users })
    }

    fn attack(&mut self, traced: bool, capture: bool) -> Result<AttackRecord, String> {
        let world = self.world.as_ref().ok_or("tcp_crowd: attack before set-up")?;
        // Only one server runs at a time: switching to traced attacks
        // stops the untraced server before the traced one starts.
        if self.served.as_ref().map(Served::traced) != Some(traced) {
            if let Some(old) = self.served.take() {
                old.server.shutdown();
            }
            self.served = Some(Served::start(world, traced)?);
        }
        let served = self.served.as_ref().ok_or("tcp_crowd: attack before set-up")?;
        let stranger = self.strangers;
        self.strangers += 1;
        if let Some(probes) = &served.probes {
            probes.handler.capture.store(capture, Ordering::Relaxed);
        }
        let before = served.probes.as_ref().map(Probes::reading);
        let (conns_before, shed_before) = served.server_counts();
        let _ = std::fs::remove_file(&self.journal_path);
        let log = Arc::new(TransportLog::default());
        let addr = served.server.addr();
        let started = Instant::now();
        let journal =
            Journal::create(&self.journal_path).map_err(err)?.with_sync_every(CRASH_SYNC_EVERY);
        // Account names must not collide on the long-lived platform.
        let mut crawler = attack::crawler(
            &format!("s{stranger}"),
            2,
            self.attacker_seed,
            &served.platform.obs,
            &log,
            move || Client::new(addr),
            Some(journal),
        )
        .map_err(err)?;
        let build_ns = ns(started);
        let target = world.target();
        let attacked = attack::attack(
            &mut crawler,
            &target,
            || truth(&world.net, world.school),
            traced,
            capture,
        )
        .map_err(err)?;
        let wall_ns = ns(started);

        // The journal must fold back to the crawler's own resume state.
        let j = crawler.journal().ok_or("tcp_crowd: crawler lost its journal")?;
        let mut figures = JournalFigures {
            records: j.records_written(),
            bytes: j.bytes_written(),
            groups: j.groups_committed(),
            write_ns: j.time_spent().as_nanos() as u64,
            recover_ns: 0,
        };
        let expected = state_digest(&crawler.resume_state());
        drop(crawler);
        let t = Instant::now();
        let log_back = recover(&self.journal_path).map_err(err)?;
        let state =
            fold_state(&log_back.records).map_err(err)?.ok_or("tcp_crowd: empty journal")?;
        figures.recover_ns = ns(t);
        if state_digest(&state) != expected {
            return Err(format!(
                "tcp_crowd: stranger {stranger}'s recovered journal state digest {:#018x} \
                 != resume_state digest {expected:#018x}",
                state_digest(&state)
            ));
        }

        let mut record = school_record(&attacked, wall_ns, build_ns, &log, traced);
        if let (Some(probes), Some(layers)) = (&served.probes, record.layers.as_mut()) {
            probes.fill(&before.unwrap_or_default(), layers);
            let (conns, shed) = served.server_counts();
            layers.server_connections = conns - conns_before;
            layers.server_shed = shed - shed_before;
            layers.journal = figures;
            if capture {
                probes.handler.capture.store(false, Ordering::Relaxed);
                self.capture = Capture {
                    responses: probes.handler.stats.take_captured(),
                    cores: attacked.core.into_iter().collect(),
                    live: None,
                };
            }
        }
        Ok(record)
    }

    fn retime(&mut self) -> Result<Retimed, String> {
        let world = self.world.as_ref().ok_or("tcp_crowd: retime before set-up")?;
        let c = std::mem::take(&mut self.capture);
        layers::retime(&c.responses, &world.net, None, true, &c.cores)
    }

    fn pinned(&self) -> Option<&Pinned> {
        self.pinned.as_ref()
    }

    fn finish(&mut self) {
        self.stop_server();
        let _ = std::fs::remove_file(&self.journal_path);
    }
}
