//! CLI: `experiments [ids... | all] [--tcp] [--workers N] [--json <dir>]`
//!
//! Regenerates the paper's tables and figures against the synthetic
//! substrate. `--tcp` runs every crawl over real loopback HTTP;
//! `--workers N` drives the per-school crawls' account queues on `N`
//! threads, in-process or over TCP (identical results, a shorter
//! modeled makespan); `--json <dir>` additionally writes
//! machine-readable results.
//! After each experiment a full metrics snapshot (counters, gauges,
//! latency quantiles, phase timings, recent events) is written to
//! `results/metrics_<experiment>.json`.

use hsp_experiments::{run_experiment, Ctx, ALL_EXPERIMENTS};

/// Dump the context registry as `results/metrics_<id>.json`.
/// Best-effort: telemetry must never fail an experiment run.
fn write_metrics_snapshot(ctx: &Ctx, id: &str) {
    let snap = ctx.obs.snapshot();
    let Ok(body) = serde_json::to_string_pretty(&snap) else { return };
    if std::fs::create_dir_all("results").is_ok() {
        let path = format!("results/metrics_{id}.json");
        if std::fs::write(&path, body).is_ok() {
            eprintln!("[metrics] wrote {path}");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tcp = args.iter().any(|a| a == "--tcp");
    let json_dir = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();
    let workers_arg =
        args.iter().position(|a| a == "--workers").and_then(|i| args.get(i + 1)).cloned();
    let workers: usize = workers_arg
        .as_deref()
        .map(|w| w.parse().expect("--workers takes a positive integer"))
        .unwrap_or(1);
    let mut ids: Vec<String> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .filter(|a| json_dir.as_deref() != Some(a.as_str()))
        .filter(|a| workers_arg.as_deref() != Some(a.as_str()))
        .cloned()
        .collect();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).expect("create json output dir");
    }
    let mut ctx = Ctx::with_workers(tcp, workers);
    for id in &ids {
        match run_experiment(&mut ctx, id) {
            Some(report) => {
                println!("{}", report.printable());
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{}.json", report.id);
                    std::fs::write(
                        &path,
                        serde_json::to_string_pretty(&report.json).expect("serialize"),
                    )
                    .expect("write json");
                    eprintln!("[json] wrote {path}");
                }
                write_metrics_snapshot(&ctx, &report.id);
            }
            None => {
                eprintln!("unknown experiment '{id}'; available: {}", ALL_EXPERIMENTS.join(", "));
                std::process::exit(2);
            }
        }
    }
}
