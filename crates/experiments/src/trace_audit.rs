//! Post-attack trace forensics: reconstruct per-request causal chains
//! from the flight recorder and cross-check them against the request
//! ledgers (`crawler_refusals_total`, `platform_refusals_total`) and
//! the crawl's [`Effort`] line items.
//!
//! The audit's premise is simple: every retry, CAPTCHA, decoy and
//! refusal the attack paid for must be explained by exactly one traced
//! cause. Span ids are pure functions of `(TRACE_SEED, lane, ordinal)`,
//! so the audit re-derives them instead of trusting the records —
//! a corrupted or misattributed span shows up as an unexplained line,
//! not as a silently-different total.
//!
//! Reconciliation rules (each one mirrors an increment site in the
//! crawler/transport/platform source — see the doc on each check):
//!
//! * retries: `RetryStats::retries` bumps once per loop-bottom retry,
//!   so ledgered retries == attempt spans minus first-attempt records.
//! * edge/fault/throttle/shed: the crawler ledgers exactly the
//!   `Retryable`-classified refusals the resilient layer absorbed, so
//!   each source's ledger == retryable attempt spans with that
//!   provenance.
//! * suspension: ledgered once per account, so the ledger == distinct
//!   lanes with a suspension-provenance root span.
//! * CAPTCHA: absorbed on every served non-auth response, so the
//!   challenge count (and virtual solve time) == non-auth root spans
//!   carrying `captcha_ms`.
//! * decoys and per-endpoint effort buckets: counted once per fetch
//!   iteration, the same cadence the crawl-side root span is recorded.
//! * platform side: each serving span records the provenance of the
//!   response it produced, so per-source serving spans == the
//!   platform's own refusal counters; edge 429s never reach a handler
//!   and reconcile against `http_server_rate_limited_total` instead.
//! * live world: mutation events live on the reserved
//!   [`WORLD_LANE`] with their own span slot — they are *not* requests,
//!   so they are excluded from every per-request rule above and instead
//!   reconcile against `platform_mutations_total{kind=…}`; the crawl's
//!   stale re-fetch and tombstone annotations reconcile against
//!   `crawler_stale_refetch_total` / `crawler_tombstones_total`.

use std::collections::{BTreeMap, BTreeSet};

use hsp_crawler::Effort;
use hsp_obs::trace::{SLOT_ATTEMPT_BASE, SLOT_MUTATION, TRACE_SEED};
use hsp_obs::{Registry, SpanRecord, TraceCtx};
use hsp_platform::mutations::WORLD_LANE;
use serde::Serialize;

/// One row of the five-way refusal taxonomy, traced and ledgered on
/// both sides of the wire.
#[derive(Clone, Debug, Serialize)]
pub struct RefusalLine {
    pub source: String,
    /// Crawl-side traced count (retryable attempt spans; distinct
    /// suspended lanes for `suspension`).
    pub traced_crawler: u64,
    /// `crawler_refusals_total{source=…}`.
    pub ledger_crawler: u64,
    /// Platform-side traced count (serving spans with this provenance;
    /// edge-limiter spans for `edge`).
    pub traced_platform: u64,
    /// `platform_refusals_total{source=…}` (edge:
    /// `http_server_rate_limited_total`).
    pub ledger_platform: u64,
}

/// The reconstructed forensics report. `closed()` is the headline:
/// every effort line item and refusal counter is explained by traced
/// spans, with nothing left over.
#[derive(Clone, Debug, Serialize)]
pub struct TraceAudit {
    /// FNV-1a digest over the canonical span order, hex.
    pub digest: String,
    /// Total spans reconstructed.
    pub spans: u64,
    /// Spans lost to ring overflow — any loss voids the reconciliation.
    pub dropped: u64,
    /// Crawl-side root spans (one per issued request).
    pub roots: u64,
    /// Transport attempt spans under those roots.
    pub attempts: u64,
    /// Resilient exchange calls (first-attempt records).
    pub exchanges: u64,
    /// `attempts - exchanges`: retries implied by the trace.
    pub retries_traced: u64,
    /// `Effort::retry_requests` as the crawl ledgered it.
    pub retries_ledgered: u64,
    /// Five-way refusal reconciliation, crawl and platform side.
    pub refusals: Vec<RefusalLine>,
    pub captcha_traced: u64,
    pub captcha_ledgered: u64,
    pub captcha_ms_traced: u64,
    pub captcha_ms_ledgered: u64,
    pub decoys_traced: u64,
    pub decoys_ledgered: u64,
    /// Live-world mutation spans on the reserved world lane.
    pub mutations_traced: u64,
    /// Sum of `platform_mutations_total{kind=…}` across kinds.
    pub mutations_ledgered: u64,
    /// `crawler_stale_refetch_total` (reconciled against the effort's
    /// `stale_refetch_requests` annotation).
    pub stale_refetches_ledgered: u64,
    /// `crawler_tombstones_total` (reconciled against `Effort::tombstones`).
    pub tombstones_ledgered: u64,
    /// Root spans per endpoint label.
    pub endpoints: BTreeMap<String, u64>,
    /// The effort ledger the trace was reconciled against.
    pub effort: Effort,
    /// Every discrepancy found. Empty ⇔ the audit closes.
    pub unexplained: Vec<String>,
}

impl TraceAudit {
    /// Whether every ledgered cost is explained by exactly one traced
    /// cause (and every span is internally consistent).
    pub fn closed(&self) -> bool {
        self.unexplained.is_empty()
    }

    /// Write the report as `trace_<digest>.json` under `dir`; returns
    /// the path written.
    pub fn write_report(&self, dir: &str) -> std::io::Result<String> {
        std::fs::create_dir_all(dir)?;
        let path = format!("{dir}/trace_{}.json", self.digest);
        let body = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::other(format!("serialize trace audit: {e}")))?;
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

/// Crawl-side root spans carry `parent_id == 0`. Mutation spans on the
/// reserved world lane also parent to 0 but are world events, not
/// requests — they are never crawl roots.
fn is_root(s: &SpanRecord) -> bool {
    s.parent_id == 0 && s.lane != WORLD_LANE
}

/// Live-world mutation spans (one per applied event, world lane only).
fn is_mutation(s: &SpanRecord) -> bool {
    s.lane == WORLD_LANE
}

fn is_attempt(s: &SpanRecord) -> bool {
    s.name == "attempt"
}

fn is_serve(s: &SpanRecord) -> bool {
    s.name.starts_with("serve:")
}

/// Reconstruct and reconcile the attack's causal chains from the
/// registry's flight recorder against the crawl's [`Effort`]. The
/// registry must be the lab's shared one, with tracing enabled before
/// the crawler was built — untraced warm-up traffic shows up as
/// unexplained ledger residue, which is exactly what the audit is for.
pub fn audit_trace(obs: &Registry, effort: &Effort) -> TraceAudit {
    let tracer = obs.tracer();
    let spans = tracer.spans();
    let snap = obs.snapshot();
    let mut unexplained = Vec::new();

    let dropped = tracer.dropped();
    if dropped > 0 {
        unexplained
            .push(format!("{dropped} spans lost to ring overflow; reconciliation is partial"));
    }

    // ---- structural integrity: every id must re-derive ------------------
    let mut bad_trace_ids = 0u64;
    let mut bad_roots = 0u64;
    let mut bad_parents = 0u64;
    let mut bad_mutations = 0u64;
    for s in &spans {
        let ctx = TraceCtx::derive(TRACE_SEED, s.lane, s.ordinal);
        if s.trace_id != ctx.trace_id {
            bad_trace_ids += 1;
        }
        if is_mutation(s) {
            // World events use the mutation slot, never the root slot,
            // and their ordinal is the schedule index.
            if s.span_id != ctx.span(SLOT_MUTATION) || !s.name.starts_with("mutation:") {
                bad_mutations += 1;
            }
        } else if is_root(s) {
            if s.span_id != ctx.root_span() {
                bad_roots += 1;
            }
        } else if s.parent_id != ctx.root_span() {
            bad_parents += 1;
        }
    }
    if bad_trace_ids > 0 {
        unexplained.push(format!("{bad_trace_ids} spans fail trace-id re-derivation"));
    }
    if bad_roots > 0 {
        unexplained.push(format!("{bad_roots} root spans fail span-id re-derivation"));
    }
    if bad_parents > 0 {
        unexplained.push(format!("{bad_parents} spans not parented to their derived root"));
    }
    if bad_mutations > 0 {
        unexplained
            .push(format!("{bad_mutations} world-lane spans fail mutation-slot re-derivation"));
    }

    // ---- retries ---------------------------------------------------------
    // Each resilient `exchange()` call records attempts 1..=n; the
    // retry counter bumps exactly n-1 times, whatever the exit path.
    // Application-level auth resends reuse one trace context, so the
    // first-attempt count is over *records*, not distinct span ids.
    let attempts: Vec<&SpanRecord> = spans.iter().filter(|s| is_attempt(s)).collect();
    let exchanges = attempts
        .iter()
        .filter(|s| {
            let ctx = TraceCtx::derive(TRACE_SEED, s.lane, s.ordinal);
            s.span_id == ctx.span(SLOT_ATTEMPT_BASE + 1)
        })
        .count() as u64;
    let retries_traced = (attempts.len() as u64).saturating_sub(exchanges);
    if retries_traced != effort.retry_requests {
        unexplained.push(format!(
            "retries: trace implies {retries_traced}, effort ledger says {}",
            effort.retry_requests
        ));
    }

    // ---- five-way refusal taxonomy --------------------------------------
    let roots: Vec<&SpanRecord> = spans.iter().filter(|s| is_root(s)).collect();
    let serve_spans: Vec<&SpanRecord> = spans.iter().filter(|s| is_serve(s)).collect();
    let crawler_ledger =
        |src: &str| snap.counter(&format!("crawler_refusals_total{{source=\"{src}\"}}"));
    let platform_ledger =
        |src: &str| snap.counter(&format!("platform_refusals_total{{source=\"{src}\"}}"));
    let mut refusals = Vec::new();
    for src in ["edge", "fault", "throttle", "shed", "suspension"] {
        let traced_crawler = if src == "suspension" {
            // Ledgered once per account; a suspended account issues no
            // further requests, so distinct lanes is the account count.
            roots
                .iter()
                .filter(|s| s.provenance == src)
                .map(|s| s.lane)
                .collect::<BTreeSet<u64>>()
                .len() as u64
        } else {
            // Mirrors the increment sites in `ResilientExchange`: the
            // provenance subsets bump only in the Retryable branch.
            attempts.iter().filter(|s| s.outcome == "retryable" && s.provenance == src).count()
                as u64
        };
        let traced_platform = if src == "edge" {
            // Edge 429s never reach a handler; the edge writes its own
            // span, named after the limiter.
            spans.iter().filter(|s| s.name == "edge-limit").count() as u64
        } else {
            serve_spans.iter().filter(|s| s.provenance == src).count() as u64
        };
        let ledger_crawler = crawler_ledger(src);
        let ledger_platform = if src == "edge" {
            snap.counter("http_server_rate_limited_total")
        } else {
            platform_ledger(src)
        };
        if traced_crawler != ledger_crawler {
            unexplained.push(format!(
                "refusal[{src}]: crawl trace says {traced_crawler}, crawler ledger says {ledger_crawler}"
            ));
        }
        if traced_platform != ledger_platform {
            unexplained.push(format!(
                "refusal[{src}]: platform trace says {traced_platform}, platform ledger says {ledger_platform}"
            ));
        }
        refusals.push(RefusalLine {
            source: src.to_string(),
            traced_crawler,
            ledger_crawler,
            traced_platform,
            ledger_platform,
        });
    }

    // ---- CAPTCHA interstitials ------------------------------------------
    // Absorbed on every served non-auth response (enroll/relogin never
    // pay solve time), at the same site the root span is recorded.
    let captchas: Vec<&&SpanRecord> =
        roots.iter().filter(|s| s.name != "auth" && s.captcha_ms > 0).collect();
    let captcha_traced = captchas.len() as u64;
    let captcha_ms_traced: u64 = captchas.iter().map(|s| s.captcha_ms).sum();
    if captcha_traced != effort.captcha_challenges {
        unexplained.push(format!(
            "captcha: trace shows {captcha_traced} challenges, effort ledger says {}",
            effort.captcha_challenges
        ));
    }
    if captcha_ms_traced != effort.captcha_virtual_ms {
        unexplained.push(format!(
            "captcha: trace shows {captcha_ms_traced} virtual ms, effort ledger says {}",
            effort.captcha_virtual_ms
        ));
    }

    // ---- decoys and per-endpoint effort buckets -------------------------
    let mut endpoints: BTreeMap<String, u64> = BTreeMap::new();
    for s in &roots {
        *endpoints.entry(s.name.clone()).or_insert(0) += 1;
    }
    let roots_named = |name: &str| endpoints.get(name).copied().unwrap_or(0);
    let decoys_traced = roots_named("decoy");
    // Fetch iterations bill the effort bucket even when the transport
    // fails outright; messages bill only once a response came back.
    let message_roots =
        roots.iter().filter(|s| s.name == "message" && s.outcome != "transport").count() as u64;
    let buckets: [(&str, u64, u64); 5] = [
        ("seeds", roots_named("find-friends"), effort.seed_requests),
        ("profiles", roots_named("profile"), effort.profile_requests),
        (
            "friend-lists",
            roots_named("friends") + roots_named("circles"),
            effort.friend_list_requests,
        ),
        ("messages", message_roots, effort.message_requests),
        ("decoys", decoys_traced, effort.decoy_requests),
    ];
    for (what, traced, ledgered) in buckets {
        if traced != ledgered {
            unexplained.push(format!(
                "{what}: trace shows {traced} requests, effort ledger says {ledgered}"
            ));
        }
    }

    // ---- live world: mutations, stale re-fetches, tombstones -------------
    // Each applied mutation records one world-lane span at the same site
    // `platform_mutations_total{kind=…}` bumps, so the sum across kinds
    // must equal the span count. Stale re-fetch GETs are already billed
    // into the per-endpoint buckets above (and traced as ordinary
    // roots); the *annotations* reconcile against their own counters.
    let mutations_traced = spans.iter().filter(|s| is_mutation(s)).count() as u64;
    let mutations_ledgered: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("platform_mutations_total"))
        .map(|(_, v)| *v)
        .sum();
    if mutations_traced != mutations_ledgered {
        unexplained.push(format!(
            "mutations: trace shows {mutations_traced} applied events, \
             platform ledger says {mutations_ledgered}"
        ));
    }
    let stale_refetches_ledgered = snap.counter("crawler_stale_refetch_total");
    if stale_refetches_ledgered != effort.stale_refetch_requests {
        unexplained.push(format!(
            "stale re-fetches: metric says {stale_refetches_ledgered}, \
             effort annotation says {}",
            effort.stale_refetch_requests
        ));
    }
    let tombstones_ledgered = snap.counter("crawler_tombstones_total");
    if tombstones_ledgered != effort.tombstones {
        unexplained.push(format!(
            "tombstones: metric says {tombstones_ledgered}, effort annotation says {}",
            effort.tombstones
        ));
    }

    TraceAudit {
        digest: format!("{:016x}", tracer.digest()),
        spans: spans.len() as u64,
        dropped,
        roots: roots.len() as u64,
        attempts: attempts.len() as u64,
        exchanges,
        retries_traced,
        retries_ledgered: effort.retry_requests,
        refusals,
        captcha_traced,
        captcha_ledgered: effort.captcha_challenges,
        captcha_ms_traced,
        captcha_ms_ledgered: effort.captcha_virtual_ms,
        decoys_traced,
        decoys_ledgered: effort.decoy_requests,
        mutations_traced,
        mutations_ledgered,
        stale_refetches_ledgered,
        tombstones_ledgered,
        endpoints,
        effort: *effort,
        unexplained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{full_attack_with, Lab};
    use hsp_platform::{DefenseConfig, DetectorStrength, FaultPlan, PlatformConfig};
    use hsp_synth::ScenarioConfig;

    /// A fault-free traced attack reconciles with nothing left over.
    #[test]
    fn clean_attack_audit_closes() {
        let lab = Lab::facebook(&ScenarioConfig::tiny());
        lab.obs.enable_tracing(4096);
        let run = full_attack_with(&lab, lab.crawler(3, "audit").seed(7).boxed());
        let audit = audit_trace(&lab.obs, &run.effort_total);
        assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
        assert!(audit.roots > 0 && audit.attempts >= audit.roots);
        assert_eq!(audit.retries_traced, 0);
        assert_eq!(audit.dropped, 0);
    }

    /// Under chaos *and* an armed sybil detector, every retry and
    /// refusal still reconciles to exactly one traced cause.
    #[test]
    fn chaotic_defended_attack_audit_closes() {
        let config = PlatformConfig {
            faults: FaultPlan::chaos(),
            defense: DefenseConfig { strength: DetectorStrength::Medium, seed: 11 },
            ..PlatformConfig::default()
        };
        let lab = Lab::facebook_configured(&ScenarioConfig::tiny(), config);
        lab.obs.enable_tracing(16384);
        let run = full_attack_with(&lab, lab.crawler(3, "audit-chaos").seed(23).boxed());
        let audit = audit_trace(&lab.obs, &run.effort_total);
        assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
        assert!(audit.retries_traced > 0, "chaos run should have traced retries");
        let fault = audit.refusals.iter().find(|r| r.source == "fault").unwrap();
        assert_eq!(fault.traced_crawler, fault.ledger_crawler);
    }

    /// A live (mutating) world's attack still reconciles: mutation
    /// spans stay off the per-request rules and close against
    /// `platform_mutations_total`; stale re-fetch and tombstone
    /// annotations close against their counters.
    #[test]
    fn live_world_attack_audit_closes() {
        let lab = Lab::facebook_live(&ScenarioConfig::tiny(), 16.0);
        lab.obs.enable_tracing(16384);
        let run = full_attack_with(&lab, lab.crawler(3, "audit-live").seed(7).boxed());
        let audit = audit_trace(&lab.obs, &run.effort_total);
        assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
        assert!(audit.mutations_traced > 0, "x16 churn should apply mutations mid-crawl");
        assert_eq!(audit.mutations_traced, audit.mutations_ledgered);
        assert_eq!(audit.stale_refetches_ledgered, run.effort_total.stale_refetch_requests);
        assert_eq!(audit.tombstones_ledgered, run.effort_total.tombstones);
    }

    /// Recording is a pure observer: under chaos at 4 workers, the
    /// traced attack pays exactly what the untraced one pays.
    #[test]
    fn tracing_never_changes_the_attack() {
        let attack = |traced: bool| {
            let lab = Lab::facebook_chaotic(&ScenarioConfig::tiny(), FaultPlan::chaos());
            if traced {
                lab.obs.enable_tracing(16384);
            }
            let run = full_attack_with(&lab, lab.crawler(4, "observer").workers(4).seed(7).boxed());
            assert_eq!(lab.obs.tracer().is_empty(), !traced);
            let checkpoint = run.access.checkpoint().to_json().expect("checkpoint json");
            (run.effort_total, checkpoint, run.access.virtual_elapsed_ms())
        };
        assert_eq!(attack(true), attack(false));
    }

    /// A cooked ledger is caught: inflate the effort's retry count and
    /// the audit must refuse to close.
    #[test]
    fn audit_flags_cooked_ledger() {
        let lab = Lab::facebook(&ScenarioConfig::tiny());
        lab.obs.enable_tracing(4096);
        let run = full_attack_with(&lab, lab.crawler(3, "audit-bad").seed(7).boxed());
        let mut cooked = run.effort_total;
        cooked.retry_requests += 5;
        cooked.captcha_challenges += 1;
        let audit = audit_trace(&lab.obs, &cooked);
        assert!(!audit.closed());
        assert!(audit.unexplained.iter().any(|u| u.contains("retries:")));
        assert!(audit.unexplained.iter().any(|u| u.contains("captcha:")));
    }
}
