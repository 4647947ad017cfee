//! End-to-end tracing + forensics pipeline: run the full attack with
//! the flight recorder on, audit the trace against the effort ledger,
//! and measure what recording costs. Appends overhead rows to
//! `BENCH_obs.json` at the workspace root and writes the forensics
//! artifacts under `results/`:
//!
//!   - `results/trace_<digest>.json`        — the closed TraceAudit
//!   - `results/trace_<digest>.chrome.json` — Chrome trace-event file
//!     (open at <https://ui.perfetto.dev> or `chrome://tracing`)
//!
//! ```sh
//! cargo run --release --example trace_forensics            # HS1, overhead gate
//! cargo run --release --example trace_forensics -- --smoke # tiny world, CI gate
//! ```
//!
//! Overhead is gated on *virtual* attack time: span recording never
//! advances any virtual clock, so the traced and untraced runs must
//! model the identical makespan (0% — comfortably under the ≤5%
//! budget). Wall-clock overhead is reported but not gated; on a shared
//! box it measures the neighbours, not the recorder.

use hs_profiler::experiments::runner::{full_attack_with, AttackRun, Lab};
use hs_profiler::experiments::trace_audit::audit_trace;
use hs_profiler::platform::FaultPlan;
use hs_profiler::synth::ScenarioConfig;
use std::time::Instant;

const SEED: u64 = 0x9d5f_2013;
const ACCOUNTS: usize = 4;
const WORKERS: usize = 4;
/// Per-lane ring capacity: one lane per account, sized so even the HS1
/// attack drops nothing (a lossy ring would void the audit).
const TRACE_CAP: usize = 1 << 16;

struct Run {
    lab: Lab,
    run: AttackRun,
    wall_secs: f64,
}

fn attack(cfg: &ScenarioConfig, traced: bool) -> Run {
    let lab = Lab::facebook_chaotic(cfg, FaultPlan::chaos());
    if traced {
        lab.obs.enable_tracing(TRACE_CAP);
    }
    let access = lab.crawler(ACCOUNTS, "atk").workers(WORKERS).seed(SEED).boxed();
    let started = Instant::now();
    let run = full_attack_with(&lab, access);
    Run { lab, run, wall_secs: started.elapsed().as_secs_f64() }
}

/// Audit the traced run, write both forensics artifacts, and return
/// `(digest, spans, audit_path)`.
fn forensics(traced: &Run) -> (String, u64, String) {
    let tracer = traced.lab.obs.tracer();
    assert_eq!(tracer.dropped(), 0, "ring overflowed; raise TRACE_CAP");
    let audit = audit_trace(&traced.lab.obs, &traced.run.effort_total);
    assert!(audit.closed(), "unexplained: {:#?}", audit.unexplained);
    let digest = audit.digest.clone();
    let spans = audit.spans;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    let _ = std::fs::create_dir_all(dir);
    let audit_path = audit.write_report(dir).expect("write audit report");
    let chrome_path = format!("{dir}/trace_{digest}.chrome.json");
    std::fs::write(&chrome_path, tracer.export_chrome_trace()).expect("write chrome trace");
    println!("forensics audit : {audit_path}");
    println!("chrome trace    : {chrome_path} (open at https://ui.perfetto.dev)");
    (digest, spans, audit_path)
}

fn append_headline(
    school: &str,
    digest: &str,
    spans: u64,
    virt_ms: u64,
    overhead_virtual_pct: f64,
    wall_untraced: f64,
    wall_traced: f64,
) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_obs.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    let Some(arr) = runs.as_array_mut() else { return };
    arr.push(serde_json::json!({
        "bench": "trace_overhead",
        "school": school,
        "accounts": ACCOUNTS as u64,
        "workers": WORKERS as u64,
        "spans": spans,
        "trace_digest": digest,
        "virtual_attack_ms": virt_ms,
        "overhead_virtual_pct": overhead_virtual_pct,
        "wall_secs_untraced": wall_untraced,
        "wall_secs_traced": wall_traced,
    }));
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!("[trace_forensics] appended 1 row to BENCH_obs.json");
        }
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (school, cfg) =
        if smoke { ("TINY", ScenarioConfig::tiny()) } else { ("HS1", ScenarioConfig::hs1()) };
    println!("trace forensics on {school} (seed {SEED:#x}, chaotic faults, {ACCOUNTS} accounts)");

    let untraced = attack(&cfg, false);
    let traced = attack(&cfg, true);

    // Same attack either way: the recorder observes, it never steers.
    assert_eq!(untraced.run.effort_total, traced.run.effort_total, "tracing changed the attack");
    let virt_off = untraced.run.access.virtual_elapsed_ms();
    let virt_on = traced.run.access.virtual_elapsed_ms();
    let overhead_virtual_pct = (virt_on as f64 - virt_off as f64) / virt_off.max(1) as f64 * 100.0;

    let (digest, spans, _) = forensics(&traced);
    println!(
        "{spans} spans, digest {digest}; virtual attack {virt_on} ms traced vs {virt_off} ms \
         untraced ({overhead_virtual_pct:+.2}%)"
    );
    println!(
        "wall: {:.2}s untraced, {:.2}s traced ({:+.1}%)",
        untraced.wall_secs,
        traced.wall_secs,
        (traced.wall_secs - untraced.wall_secs) / untraced.wall_secs.max(1e-9) * 100.0
    );
    assert!(
        overhead_virtual_pct <= 5.0,
        "tracing overhead {overhead_virtual_pct:.2}% exceeds the 5% budget"
    );

    if smoke {
        // Digest stability: an identical run leaves an identical trace.
        let replay = attack(&cfg, true);
        assert_eq!(
            replay.lab.obs.tracer().digest(),
            traced.lab.obs.tracer().digest(),
            "trace digest must be reproducible"
        );
        println!("smoke: digest reproducible, audit closed, overhead gate PASS");
    } else {
        append_headline(
            school,
            &digest,
            spans,
            virt_on,
            overhead_virtual_pct,
            untraced.wall_secs,
            traced.wall_secs,
        );
        println!("overhead gate (≤5% virtual attack time): PASS");
    }
}
