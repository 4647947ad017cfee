//! The gated HS1 sweeps behind the reproduction's extensions: the
//! sybil-detector arms race, the live-world freshness frontier, the
//! chaos sweep, worker scaling and trace forensics.
//!
//! Detector, fault and mutation state live on the platform, so every
//! cell attacks a fresh lab and the context's cached school runs don't
//! apply. Each sweep asserts its own invariants: a failed gate panics,
//! so `experiments` exits non-zero. Wall time is not reported here; it
//! is attackbench's job (`attackbench/README.md`).

use crate::ctx::Ctx;
use crate::report::ExperimentReport;
use crate::runner::{full_attack_with, try_attack, Lab};
use crate::tablefmt::Table;
use crate::trace_audit::audit_trace;
use hsp_core::{Completeness, EvalPoint};
use hsp_crawler::{AdaptiveStrategy, Effort, OsnAccess, Politeness};
use hsp_platform::{DefenseConfig, DetectorStrength, FaultPlan};
use hsp_synth::generate_sharded;
use serde_json::{json, Value};

/// Seed of the attackers' retry jitter (and of the adaptive strategy).
const SEED: u64 = 0x9d5f_2013;

/// What one sweep cell's attack found and cost.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    /// Table 4 at `t` = school size, or why the crawl died.
    table4: Result<EvalPoint, String>,
    effort: Effort,
    virtual_ms: u64,
    suspensions: u64,
    recruited: u64,
}

impl Outcome {
    /// Run the attack over `access` against `lab`.
    fn of(lab: &Lab, access: &mut dyn OsnAccess) -> Outcome {
        let table4 = try_attack(lab, access).map_err(|e| e.to_string());
        let snap = lab.obs.snapshot();
        Outcome {
            table4,
            effort: access.effort(),
            virtual_ms: access.virtual_elapsed_ms(),
            suspensions: snap.counter("crawler_account_suspensions_total"),
            recruited: snap.counter("crawler_accounts_recruited_total"),
        }
    }

    /// Table 4's found, correct-year and false positives (zeros when
    /// the crawl died).
    fn counts(&self) -> (usize, usize, usize) {
        self.table4.as_ref().map_or((0, 0, 0), |p| (p.found, p.correct_year, p.false_positives))
    }

    fn virtual_minutes(&self) -> f64 {
        self.virtual_ms as f64 / 60_000.0
    }

    /// `row` (an object of the sweep's own columns) plus the columns
    /// every sweep reports, under the keys the retired `BENCH_*.json`
    /// rows used.
    fn row(&self, mut row: Value) -> Value {
        let (found, correct_year, false_positives) = self.counts();
        let cols = row.as_object_mut().expect("a sweep row is an object");
        let mut put = |k: &str, v: Value| {
            cols.insert(k.to_string(), v);
        };
        put("completed", self.table4.is_ok().into());
        if let Err(e) = &self.table4 {
            put("error", e.as_str().into());
        }
        put("found", (found as u64).into());
        put("correct_year", (correct_year as u64).into());
        put("false_positives", (false_positives as u64).into());
        put("total_requests", self.effort.total().into());
        put("retries", self.effort.retry_requests.into());
        put("suspensions", self.suspensions.into());
        put("accounts_recruited", self.recruited.into());
        put("virtual_minutes", self.virtual_minutes().into());
        row
    }
}

/// Denominator floor for the detection rate: sessions that lived at
/// least as long as the weakest tier needs to form an opinion, so
/// short-lived recruits don't dilute strong-tier rates.
const SESSION_FLOOR: u64 = 48;
const STRENGTHS: [DetectorStrength; 4] = [
    DetectorStrength::Off,
    DetectorStrength::Low,
    DetectorStrength::Medium,
    DetectorStrength::High,
];
const CRAWLERS: [&str; 2] = ["naive", "adaptive"];

#[derive(Clone, Debug, PartialEq)]
struct ArmsCell {
    detector: DetectorStrength,
    crawler: &'static str,
    outcome: Outcome,
    sessions_eligible: u64,
    sessions_flagged: u64,
}

impl ArmsCell {
    fn measure(lab: &Lab, detector: DetectorStrength, crawler: &'static str) -> ArmsCell {
        let adaptive = (crawler == "adaptive").then(|| AdaptiveStrategy::seeded(SEED));
        let mut access =
            lab.crawler(2, "arms").seed(SEED).max_accounts(64).adaptive(adaptive).boxed();
        let outcome = Outcome::of(lab, access.as_mut());
        let (sessions_eligible, sessions_flagged) =
            lab.platform.defense.frontier_counts(SESSION_FLOOR);
        ArmsCell { detector, crawler, outcome, sessions_eligible, sessions_flagged }
    }

    fn detection_pm(&self) -> u64 {
        (self.sessions_flagged * 1_000).checked_div(self.sessions_eligible).unwrap_or(0)
    }
}

/// Defender arms race on the full HS1 attack: the sybil detector's
/// strength tiers against the naive and the adaptive crawler.
///
/// Gates: `Off` reproduces an undefended lab's attack exactly (Table 4,
/// effort ledger, virtual time); the detection rate is monotone in
/// strength per crawler; `High` detects at least 50% of the naive
/// crawler's long-lived sessions; the naive crawler's virtual cost is
/// monotone in strength; and the High/adaptive cell replays exactly.
pub fn arms_race(ctx: &mut Ctx) -> ExperimentReport {
    let cfg = Ctx::config_for("HS1");
    let _ = ctx;
    let cell = |detector, crawler| {
        let defense = DefenseConfig { strength: detector, ..DefenseConfig::default() };
        ArmsCell::measure(&Lab::facebook_defended(&cfg, defense), detector, crawler)
    };
    let baseline = ArmsCell::measure(&Lab::facebook(&cfg), DetectorStrength::Off, "naive");
    let cells: Vec<ArmsCell> =
        STRENGTHS.iter().flat_map(|&s| CRAWLERS.map(|c| cell(s, c))).collect();
    let find = |s: DetectorStrength, c: &str| {
        cells.iter().find(|x| x.detector == s && x.crawler == c).expect("sweep cell")
    };

    assert_eq!(
        find(DetectorStrength::Off, "naive").outcome,
        baseline.outcome,
        "detector off must reproduce the undefended attack exactly"
    );
    for crawler in CRAWLERS {
        let rates: Vec<u64> = STRENGTHS.iter().map(|&s| find(s, crawler).detection_pm()).collect();
        assert!(
            rates.windows(2).all(|w| w[0] <= w[1]),
            "{crawler} detection rate must be monotone in strength, got {rates:?}"
        );
    }
    let high_naive = find(DetectorStrength::High, "naive").detection_pm();
    assert!(high_naive >= 500, "High must detect >=500‰ of naive sessions, got {high_naive}‰");
    let costs: Vec<u64> = STRENGTHS.iter().map(|&s| find(s, "naive").outcome.virtual_ms).collect();
    assert!(
        costs.windows(2).all(|w| w[0] <= w[1]),
        "naive attack cost must be monotone in strength, got {costs:?} virtual ms"
    );
    assert_eq!(
        &cell(DetectorStrength::High, "adaptive"),
        find(DetectorStrength::High, "adaptive"),
        "the High/adaptive cell must replay exactly"
    );

    let mut table = Table::new(&[
        "detector",
        "crawler",
        "completed",
        "detected",
        "rate",
        "found",
        "requests",
        "retries",
        "captchas",
        "decoys",
        "suspended",
        "virt-min",
    ]);
    let mut points = Vec::new();
    for c in &cells {
        let (o, e) = (&c.outcome, &c.outcome.effort);
        table.row(&[
            c.detector.label().into(),
            c.crawler.into(),
            if o.table4.is_ok() { "yes" } else { "DIED" }.into(),
            format!("{}/{}", c.sessions_flagged, c.sessions_eligible),
            format!("{}‰", c.detection_pm()),
            o.counts().0.to_string(),
            e.total().to_string(),
            e.retry_requests.to_string(),
            e.captcha_challenges.to_string(),
            e.decoy_requests.to_string(),
            o.suspensions.to_string(),
            format!("{:.1}", o.virtual_minutes()),
        ]);
        points.push(o.row(json!({
            "detector": c.detector.label(),
            "crawler": c.crawler,
            "sessions_eligible": c.sessions_eligible,
            "sessions_flagged": c.sessions_flagged,
            "detection_pm": c.detection_pm(),
            "captcha_challenges": e.captcha_challenges,
            "captcha_virtual_ms": e.captcha_virtual_ms,
            "decoy_requests": e.decoy_requests,
        })));
    }
    ExperimentReport::new(
        "arms-race",
        "Sybil-detector strength vs naive/adaptive crawler (HS1 frontier)",
        table.render(),
        json!({ "session_floor": SESSION_FLOOR, "points": points }),
    )
}

/// Churn factors (the scenario's own `ChurnModel`, scaled) and crawl
/// paces of the freshness frontier, and its crawler's seed.
const CHURN: [f64; 4] = [0.0, 1.0, 4.0, 16.0];
const PACES: [(&str, u64); 2] = [("paper", 1_500), ("slow", 6_000)];
const LIVE_SEED: u64 = 0x11FE_2013;

#[derive(Clone, Debug, PartialEq)]
struct LiveCell {
    factor: f64,
    pace: &'static str,
    pace_ms: u64,
    outcome: Outcome,
    trace_digest: String,
    mutations_applied: u64,
    mutations_scheduled: u64,
    state_digest: u64,
}

impl LiveCell {
    /// One traced attack at `pace_ms` on `lab` (churned by `factor`);
    /// panics unless it completes and its trace audit closes over
    /// everything the crawl and the world did.
    fn measure(lab: &Lab, factor: f64, (pace, pace_ms): (&'static str, u64)) -> LiveCell {
        // Lossless for a full HS1 crawl: a dropped span voids the audit.
        lab.obs.enable_tracing(1 << 18);
        let politeness = Politeness { sleep_ms_between_requests: pace_ms, ..Politeness::default() };
        let mut access = lab
            .crawler(lab.paper_account_count(), "live")
            .seed(LIVE_SEED)
            .politeness(politeness)
            .boxed();
        let outcome = Outcome::of(lab, access.as_mut());
        assert!(outcome.table4.is_ok(), "live attack died: {:?}", outcome.table4);
        assert_eq!(lab.obs.tracer().dropped(), 0, "trace ring overflowed");
        let audit = audit_trace(&lab.obs, &outcome.effort);
        assert!(audit.closed(), "audit must close, unexplained: {:#?}", audit.unexplained);
        let mutations = &lab.platform.mutations;
        LiveCell {
            factor,
            pace,
            pace_ms,
            outcome,
            trace_digest: audit.digest,
            mutations_applied: mutations.applied_count() as u64,
            mutations_scheduled: mutations.event_count() as u64,
            state_digest: mutations.state_digest(),
        }
    }
}

/// Live-world freshness frontier on the full HS1 attack: churn
/// intensity against crawl pacing (slower crawls live through more
/// churn).
///
/// Gates: zero churn replays the frozen world exactly (trace digest,
/// effort, Table 4, virtual time, no mutation applied); every cell's
/// trace audit closes; applied mutations are monotone in churn per pace
/// and non-zero at ×16; the staleness protocol fires somewhere (stale
/// re-fetches plus tombstones > 0); and the ×16 slow cell replays
/// exactly. The 1 ≡ 8 workers gate under chaos, detector and churn is
/// `tests/parallel_equivalence.rs`.
pub fn freshness(ctx: &mut Ctx) -> ExperimentReport {
    let cfg = Ctx::config_for("HS1");
    let _ = ctx;
    let live = |factor, pace| LiveCell::measure(&Lab::facebook_live(&cfg, factor), factor, pace);
    let mut cells = Vec::new();
    for pace in PACES {
        let frozen = LiveCell::measure(&Lab::facebook(&cfg), 0.0, pace);
        let row = CHURN.map(|factor| live(factor, pace));
        assert_eq!(
            (&row[0].outcome, &row[0].trace_digest, row[0].mutations_applied),
            (&frozen.outcome, &frozen.trace_digest, 0),
            "[{}] zero churn must replay the frozen world exactly",
            pace.0
        );
        let applied: Vec<u64> = row.iter().map(|c| c.mutations_applied).collect();
        assert!(
            applied.windows(2).all(|w| w[0] <= w[1]) && applied[CHURN.len() - 1] > 0,
            "[{}] applied mutations must be monotone in churn and non-zero at x16, got {applied:?}",
            pace.0
        );
        cells.extend(row);
    }
    let churn_annotations: u64 = cells
        .iter()
        .filter(|c| c.factor > 0.0)
        .map(|c| c.outcome.effort.stale_refetch_requests + c.outcome.effort.tombstones)
        .sum();
    assert!(churn_annotations > 0, "churn never produced a stale re-fetch or tombstone");
    let hottest = cells.last().expect("cells");
    assert_eq!(
        &live(hottest.factor, (hottest.pace, hottest.pace_ms)),
        hottest,
        "x16 slow must replay exactly"
    );

    let mut table = Table::new(&[
        "churn",
        "pace",
        "scheduled",
        "applied",
        "tombstones",
        "stale-ref",
        "requests",
        "found",
        "virt-min",
    ]);
    let mut points = Vec::new();
    for c in &cells {
        let e = &c.outcome.effort;
        table.row(&[
            format!("x{:.0}", c.factor),
            c.pace.to_string(),
            c.mutations_scheduled.to_string(),
            c.mutations_applied.to_string(),
            e.tombstones.to_string(),
            e.stale_refetch_requests.to_string(),
            e.total().to_string(),
            c.outcome.counts().0.to_string(),
            format!("{:.1}", c.outcome.virtual_minutes()),
        ]);
        points.push(c.outcome.row(json!({
            "churn_factor": c.factor,
            "pace": c.pace,
            "pace_ms": c.pace_ms,
            "mutations_applied": c.mutations_applied,
            "mutations_scheduled": c.mutations_scheduled,
            "mutation_state_digest": format!("{:016x}", c.state_digest),
            "trace_digest": c.trace_digest,
            "stale_refetches": e.stale_refetch_requests,
            "tombstones": e.tombstones,
        })));
    }
    ExperimentReport::new(
        "freshness",
        "Live-world freshness: attack accuracy vs churn rate vs crawl pacing (HS1)",
        table.render(),
        json!({ "points": points }),
    )
}

/// The full HS1 attack against multiples of `FaultPlan::chaos()`.
///
/// Gate: every factor up to 4× completes and finds exactly what factor
/// 0 finds (Table 4's found and correct-year) — surviving the faults
/// changes only what the attack costs.
pub fn chaos_sweep(ctx: &mut Ctx) -> ExperimentReport {
    let cfg = Ctx::config_for("HS1");
    let _ = ctx;
    let mut table = Table::new(&[
        "factor",
        "found",
        "year",
        "requests",
        "retries",
        "suspended",
        "recruited",
        "partial",
        "virt-min",
    ]);
    let mut points = Vec::new();
    let mut base: Option<EvalPoint> = None;
    for factor in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let plan =
            if factor == 0.0 { FaultPlan::default() } else { FaultPlan::chaos().scaled(factor) };
        let lab = Lab::facebook_chaotic(&cfg, plan);
        let mut access = lab.crawler(2, "atk").seed(SEED).boxed();
        let o = Outcome::of(&lab, access.as_mut());
        let partial = Completeness::from_access(access.as_ref()).incomplete_friend_lists.len();
        let p = o.table4.clone().unwrap_or_else(|e| panic!("x{factor} did not complete: {e}"));
        let base = *base.get_or_insert(p);
        assert_eq!(
            (p.found, p.correct_year),
            (base.found, base.correct_year),
            "x{factor} must find what factor 0 finds"
        );
        table.row(&[
            format!("{factor:.1}"),
            p.found.to_string(),
            p.correct_year.to_string(),
            o.effort.total().to_string(),
            o.effort.retry_requests.to_string(),
            o.suspensions.to_string(),
            o.recruited.to_string(),
            partial.to_string(),
            format!("{:.1}", o.virtual_minutes()),
        ]);
        points.push(o.row(json!({ "fault_factor": factor, "partial_friend_lists": partial })));
    }
    ExperimentReport::new(
        "chaos-sweep",
        "Attack survival vs fault intensity: 0-4x FaultPlan::chaos() (HS1)",
        table.render(),
        json!({ "points": points }),
    )
}

/// The full HS1 attack on one fixed fleet of 8 accounts driven by 1, 2,
/// 4 and 8 workers, and the sharded world build at 1, 2, 4 and 8
/// threads. The speed-up is the *modeled* virtual makespan's
/// (`OsnAccess::virtual_elapsed_ms`); measured wall time is
/// attackbench's.
///
/// Gates: every worker count replays the identical attack (seeds and
/// effort); the modeled speed-up at 8 workers is at least 3×; every
/// thread count builds the same world (one fingerprint).
pub fn worker_scaling(ctx: &mut Ctx) -> ExperimentReport {
    const ACCOUNTS: usize = 8;
    const POINTS: [usize; 4] = [1, 2, 4, 8];
    let cfg = Ctx::config_for("HS1");
    let _ = ctx;
    let runs: Vec<_> = POINTS
        .iter()
        .map(|&workers| {
            let lab = Lab::facebook(&cfg);
            let access = lab.crawler(ACCOUNTS, "atk").workers(workers).seed(SEED).boxed();
            full_attack_with(&lab, access)
        })
        .collect();
    for (run, workers) in runs.iter().zip(POINTS).skip(1) {
        assert_eq!(run.discovery.seeds, runs[0].discovery.seeds, "seeds diverged at {workers}");
        assert_eq!(run.effort_total, runs[0].effort_total, "effort diverged at {workers}");
    }
    let virtual_secs: Vec<f64> =
        runs.iter().map(|r| r.access.virtual_elapsed_ms() as f64 / 1_000.0).collect();
    let speedup = virtual_secs[0] / virtual_secs[POINTS.len() - 1].max(1e-9);
    assert!(speedup >= 3.0, "expected a >=3x modeled speed-up at 8 workers, got {speedup:.2}x");
    let builds: Vec<(usize, u64)> = POINTS
        .iter()
        .map(|&threads| {
            let network = generate_sharded(&cfg, threads).network;
            (network.user_count(), network.fingerprint())
        })
        .collect();
    assert!(builds.iter().all(|b| *b == builds[0]), "the sharded build diverged: {builds:?}");

    let mut table =
        Table::new(&["workers", "pages", "virt-s", "pages/virt-s", "threads", "fingerprint"]);
    let mut crawl = Vec::new();
    let mut synth = Vec::new();
    for (i, &n) in POINTS.iter().enumerate() {
        let pages = runs[i].effort_total.total();
        let (users, fingerprint) = builds[i];
        let fingerprint = format!("{fingerprint:#018x}");
        let per_sec = pages as f64 / virtual_secs[i].max(1e-9);
        table.row(&[
            n.to_string(),
            pages.to_string(),
            format!("{:.1}", virtual_secs[i]),
            format!("{per_sec:.2}"),
            n.to_string(),
            fingerprint.clone(),
        ]);
        crawl.push(json!({
            "school": "HS1",
            "workers": n as u64,
            "accounts": ACCOUNTS as u64,
            "pages": pages,
            "virtual_secs": virtual_secs[i],
            "pages_per_virtual_sec": per_sec,
        }));
        synth.push(json!({
            "school": "HS1",
            "threads": n as u64,
            "users": users as u64,
            "fingerprint": fingerprint,
        }));
    }
    ExperimentReport::new(
        "worker-scaling",
        "Modeled crawl makespan vs workers, and sharded build determinism (HS1)",
        format!("{}\nModeled attack speed-up at 8 workers: {speedup:.2}x\n", table.render()),
        json!({
            "crawl_attack": crawl,
            "synth_build": synth,
            "crawl_speedup": json!({ "school": "HS1", "workers": 8u64, "modeled_speedup": speedup }),
        }),
    )
}

/// The full HS1 attack under `FaultPlan::chaos()` at 4 accounts on 4
/// workers, once untraced and once with the flight recorder on. Writes
/// the closed audit to `results/trace_<digest>.json` and a Chrome
/// trace-event file (open at <https://ui.perfetto.dev>) to
/// `results/trace_<digest>.chrome.json`.
///
/// Gates: recording is a pure observer (the traced run's outcome,
/// effort and virtual time equal the untraced run's), and the audit
/// closes with no dropped span.
pub fn trace_forensics(ctx: &mut Ctx) -> ExperimentReport {
    const ACCOUNTS: usize = 4;
    const WORKERS: usize = 4;
    let cfg = Ctx::config_for("HS1");
    let _ = ctx;
    let attack = |traced: bool| {
        let lab = Lab::facebook_chaotic(&cfg, FaultPlan::chaos());
        if traced {
            // Per-lane capacity: the HS1 attack drops nothing.
            lab.obs.enable_tracing(1 << 16);
        }
        let mut access = lab.crawler(ACCOUNTS, "atk").workers(WORKERS).seed(SEED).boxed();
        let outcome = Outcome::of(&lab, access.as_mut());
        assert!(outcome.table4.is_ok(), "chaotic attack died: {:?}", outcome.table4);
        (lab, outcome)
    };
    let (_, untraced) = attack(false);
    let (lab, traced) = attack(true);
    assert_eq!(traced, untraced, "tracing changed the attack");
    let tracer = lab.obs.tracer();
    assert_eq!(tracer.dropped(), 0, "trace ring overflowed");
    let audit = audit_trace(&lab.obs, &traced.effort);
    assert!(audit.closed(), "audit must close, unexplained: {:#?}", audit.unexplained);
    let audit_path = audit.write_report("results").expect("write the trace audit");
    let chrome_path = format!("results/trace_{}.chrome.json", audit.digest);
    std::fs::write(&chrome_path, tracer.export_chrome_trace()).expect("write the Chrome trace");
    let overhead_pct = (traced.virtual_ms as f64 - untraced.virtual_ms as f64)
        / untraced.virtual_ms.max(1) as f64
        * 100.0;

    let mut table = Table::new(&["metric", "value"]);
    table.row(&["spans".into(), audit.spans.to_string()]);
    table.row(&["trace digest".into(), audit.digest.clone()]);
    table.row(&["virtual attack ms".into(), traced.virtual_ms.to_string()]);
    table.row(&["virtual overhead".into(), format!("{overhead_pct:+.2}%")]);
    table.row(&["audit".into(), audit_path.clone()]);
    table.row(&["chrome trace".into(), chrome_path.clone()]);
    ExperimentReport::new(
        "trace-forensics",
        "Flight-recorder forensics: a closed audit of the chaotic HS1 attack",
        table.render(),
        json!({
            "school": "HS1",
            "accounts": ACCOUNTS as u64,
            "workers": WORKERS as u64,
            "spans": audit.spans,
            "trace_digest": audit.digest,
            "virtual_attack_ms": traced.virtual_ms,
            "overhead_virtual_pct": overhead_pct,
            "audit_report": audit_path,
            "chrome_trace": chrome_path,
        }),
    )
}
