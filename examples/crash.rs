//! Crash-only attacker, end to end: a *real* child process is killed
//! mid-journal-write (SIGABRT at an injected kill point, optionally
//! tearing the frame), then restarted against the same still-running
//! TCP platform — and must converge bit-identically with an
//! uninterrupted run. Also measures journal overhead on the realistic
//! transport — journaled vs volatile attacker children over TCP, with
//! group-commit batching. The gated number is the journal's *direct*
//! write-path cost as a fraction of the journaled attack's wall (both
//! measured in the same process, so host jitter cancels); the A/B
//! wall comparison is recorded alongside it as evidence. A full run
//! appends a headline row to `BENCH_crash.json` at the workspace root,
//! and `scripts/crash.sh` re-reads that row and enforces the ≤5% gate;
//! a `--smoke` run prints its row and leaves the file alone.
//!
//! ```sh
//! cargo run --release --example crash            # full gate
//! cargo run --release --example crash -- --smoke # single-rep overhead
//! ```
//!
//! The process model: the parent is "the internet" — it owns the two
//! simulated platforms (chaos faults + live churn armed) and serves
//! them over loopback TCP. Children are attacker processes: they build
//! a journaled [`ParallelCrawler`] over real sockets, recover whatever
//! their journal holds at startup (the startup path *is* the recovery
//! path), and print their outcome as one JSON line. The killed child
//! dies for real — `std::process::abort` — so everything in its memory
//! is gone; only the journal file and the platform survive.
//!
//! [`ParallelCrawler`]: hs_profiler::crawler::ParallelCrawler

use hs_profiler::core::{
    evaluate, run_basic, run_enhanced, AttackConfig, EnhanceOptions, GroundTruth,
};
use hs_profiler::crawler::{
    fold_state, recover, AccountSeat, CrawlError, Journal, KillPlan, OsnAccess, ParallelCrawler,
    ResumeState,
};
use hs_profiler::experiments::crash_lab::{
    baseline_on, crash_lab, killed_and_resumed_on, CRASH_ACCOUNTS, CRASH_MAX_ACCOUNTS,
    CRASH_SYNC_EVERY,
};
use hs_profiler::experiments::Ctx;
use hs_profiler::http::{Client, ResilientExchange, RetryPolicy, RetryStats};
use hs_profiler::obs::VirtualClock;
use hs_profiler::synth::{generate, Scenario};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

const SEED: u64 = 0xC4A5;
const WORKERS: usize = 2;
const CHURN: f64 = 1.0;

type TcpExchange = ResilientExchange<Client>;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

// ---------------------------------------------------------------- child

fn make_seat(addr: SocketAddr, stats: &Arc<RetryStats>, i: u64) -> AccountSeat<TcpExchange> {
    let clock = VirtualClock::shared();
    AccountSeat {
        exchange: ResilientExchange::with_stats(
            Client::new(addr),
            RetryPolicy::seeded(SEED ^ i),
            Arc::clone(&clock),
            Arc::clone(stats),
        )
        .with_attempt_seq(),
        clock: Some(clock),
    }
}

/// Crash-only startup: recover the journal (a missing file is a legal
/// empty log), then resume or start fresh over TCP. `path: None` is
/// the volatile attacker — no journal at all, the overhead yardstick.
/// Seat minting follows the same convention as the in-process harness:
/// initial lane `i` is seat `i`, recruit lane `CRASH_ACCOUNTS + j` is
/// seat `CRASH_ACCOUNTS + 1 + j`.
fn child_crawler(
    addr: SocketAddr,
    path: Option<&Path>,
    kill: Option<KillPlan>,
) -> (ParallelCrawler<TcpExchange>, Option<ResumeState>, u64) {
    let (journal, state, recovery_us) = match path {
        None => (None, None, 0),
        Some(path) => {
            let t0 = Instant::now();
            let log = recover(path).expect("journal recovery");
            let state = fold_state(&log.records).expect("journal fold");
            let journal = match &state {
                Some(state) => Journal::create_with_base(path, state),
                None => Journal::create(path),
            }
            .expect("journal reopen")
            .with_sync_every(CRASH_SYNC_EVERY);
            let journal = match kill {
                Some(plan) => journal.with_kill_plan(plan),
                None => journal,
            };
            (Some(journal), state, t0.elapsed().as_micros() as u64)
        }
    };
    let stats = Arc::new(RetryStats::default());
    let crawler = match &state {
        Some(state) => {
            let seat_index = |lane: usize| -> u64 {
                if lane < CRASH_ACCOUNTS {
                    lane as u64
                } else {
                    (CRASH_ACCOUNTS + 1 + (lane - CRASH_ACCOUNTS)) as u64
                }
            };
            let seats: Vec<_> =
                (0..state.lanes.len()).map(|i| make_seat(addr, &stats, seat_index(i))).collect();
            let factory = {
                let stats = Arc::clone(&stats);
                let mut next = CRASH_ACCOUNTS as u64 + state.sched.recruited;
                move || {
                    next += 1;
                    make_seat(addr, &stats, next)
                }
            };
            ParallelCrawler::builder("crash")
                .workers(WORKERS)
                .retry_stats(stats)
                .recruit_with(factory, CRASH_MAX_ACCOUNTS)
                .journal(journal.expect("resume requires a journal"))
                .build_resumed(state, seats)
        }
        None => {
            let seats: Vec<_> =
                (0..CRASH_ACCOUNTS as u64).map(|i| make_seat(addr, &stats, i)).collect();
            let factory = {
                let stats = Arc::clone(&stats);
                let mut next = CRASH_ACCOUNTS as u64;
                move || {
                    next += 1;
                    make_seat(addr, &stats, next)
                }
            };
            let mut builder = ParallelCrawler::builder("crash")
                .workers(WORKERS)
                .retry_stats(stats)
                .recruit_with(factory, CRASH_MAX_ACCOUNTS);
            if let Some(journal) = journal {
                builder = builder.journal(journal);
            }
            builder.build(seats)
        }
    }
    .expect("child crawler");
    (crawler, state, recovery_us)
}

/// Same reduction as the in-process harness: FNV over the Table-2/4
/// outputs. Children are only ever compared against each other, so the
/// exact folding just has to be deterministic and total.
fn child_drive(
    scenario: &Scenario,
    access: &mut dyn OsnAccess,
) -> Result<(u64, usize), CrawlError> {
    let config = AttackConfig::new(
        scenario.school,
        scenario.network.senior_class_year(),
        scenario.config.public_enrollment_estimate,
    );
    let t = config.school_size_estimate as usize;
    let discovery = run_basic(access, &config)?;
    let enhanced = run_enhanced(
        access,
        &discovery,
        &EnhanceOptions { t, filtering: true, enhance: true, school_city: scenario.home_city },
    )?;
    let truth = GroundTruth::from_scenario(scenario);
    let guessed = enhanced.guessed_students(t);
    let eval = evaluate(t, &guessed, |u| enhanced.inferred_year(u, &config), &truth);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    fnv(&mut h, discovery.seeds.len() as u64);
    fnv(&mut h, discovery.core.len() as u64);
    fnv(&mut h, discovery.candidate_count() as u64);
    fnv(&mut h, guessed.len() as u64);
    for &u in &guessed {
        fnv(&mut h, u.0);
    }
    fnv(&mut h, eval.found as u64);
    fnv(&mut h, eval.correct_year as u64);
    fnv(&mut h, eval.guessed as u64);
    Ok((h, eval.found))
}

/// This process's user+system CPU seconds (`/proc/self/stat`), for
/// separating journal CPU cost from scheduler wall noise. 0.0 where
/// /proc is unavailable.
fn cpu_secs() -> f64 {
    let stat = match std::fs::read_to_string("/proc/self/stat") {
        Ok(s) => s,
        Err(_) => return 0.0,
    };
    // utime and stime are fields 14 and 15 (1-based), after the
    // parenthesized comm which may contain spaces.
    let after = match stat.rsplit_once(") ") {
        Some((_, rest)) => rest,
        None => return 0.0,
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks: f64 = fields.get(11).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0)
        + fields.get(12).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    ticks / 100.0
}

fn child_main() -> ! {
    let addr: SocketAddr =
        std::env::var("CRASH_ADDR").expect("CRASH_ADDR").parse().expect("parse CRASH_ADDR");
    let path = std::env::var("CRASH_JOURNAL").ok().map(PathBuf::from);
    let kill = std::env::var("CRASH_KILL_AFTER").ok().map(|n| {
        let after: u64 = n.parse().expect("parse CRASH_KILL_AFTER");
        match std::env::var("CRASH_KILL_TORN").ok().and_then(|t| t.parse::<usize>().ok()) {
            Some(torn) => KillPlan::torn(after, torn),
            None => KillPlan::after(after),
        }
    });
    let cfg_name = std::env::var("CRASH_CFG").unwrap_or_else(|_| "TINY".to_string());
    let scenario = generate(&Ctx::config_for(&cfg_name));
    // Time the whole attacker lifetime past world setup: recovery,
    // crawler build, and the full crawl — journaling cost included.
    let cpu0 = cpu_secs();
    let t0 = Instant::now();
    let (mut crawler, state, recovery_us) = child_crawler(addr, path.as_deref(), kill);
    let resumed = state.is_some();
    match child_drive(&scenario, &mut crawler) {
        Ok((digest, found)) => {
            let effort = crawler.effort();
            // Force the deferred group fsync now so the journal's own
            // write-path clock covers the whole durable run, then read
            // it: the direct journaling cost, measured in-process.
            let journal_secs = match crawler.journal_mut() {
                Some(journal) => {
                    journal.sync().expect("final journal sync");
                    journal.time_spent().as_secs_f64()
                }
                None => 0.0,
            };
            drop(crawler);
            let attack_secs = t0.elapsed().as_secs_f64();
            let attack_cpu_secs = cpu_secs() - cpu0;
            println!(
                "{}",
                serde_json::json!({
                    "digest": format!("{digest:016x}"),
                    "found": found,
                    "effort": effort,
                    "resumed": resumed,
                    "recovery_us": recovery_us,
                    "attack_secs": attack_secs,
                    "attack_cpu_secs": attack_cpu_secs,
                    "journal_secs": journal_secs,
                })
            );
            std::process::exit(0)
        }
        Err(CrawlError::BadPage("journal kill point")) => {
            // Die for real, mid-write: no unwinding, no Drop, no
            // flush — exactly what SIGKILL at a power cut looks like.
            eprintln!("[child] kill point reached; aborting process");
            std::process::abort()
        }
        Err(e) => {
            eprintln!("[child] crawl failed: {e:?}");
            std::process::exit(1)
        }
    }
}

// --------------------------------------------------------------- parent

fn spawn_child(
    addr: SocketAddr,
    journal: Option<&Path>,
    kill: Option<(u64, Option<usize>)>,
) -> std::process::Output {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.env("CRASH_CHILD", "1").env("CRASH_ADDR", addr.to_string());
    if let Ok(cfg) = std::env::var("CRASH_CFG") {
        cmd.env("CRASH_CFG", cfg);
    }
    if let Some(journal) = journal {
        cmd.env("CRASH_JOURNAL", journal);
    }
    if let Some((after, torn)) = kill {
        cmd.env("CRASH_KILL_AFTER", after.to_string());
        if let Some(torn) = torn {
            cmd.env("CRASH_KILL_TORN", torn.to_string());
        }
    }
    cmd.output().expect("spawn child")
}

fn field<'a>(v: &'a serde_json::Value, key: &str) -> &'a serde_json::Value {
    v.get(key).unwrap_or_else(|| panic!("child result missing `{key}`"))
}

fn child_json(out: &std::process::Output) -> serde_json::Value {
    assert!(
        out.status.success(),
        "child failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("child printed a result line");
    serde_json::from_str(line).expect("child result parses")
}

fn append_headline(row: serde_json::Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_crash.json");
    let mut runs: serde_json::Value = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok())
        .unwrap_or_else(|| serde_json::json!([]));
    runs.as_array_mut().expect("array").push(row);
    if let Ok(body) = serde_json::to_string_pretty(&runs) {
        if std::fs::write(path, body).is_ok() {
            eprintln!("[crash] appended 1 row to BENCH_crash.json");
        }
    }
}

fn main() {
    if std::env::var("CRASH_CHILD").is_ok() {
        child_main();
    }
    let smoke = std::env::args().any(|a| a == "--smoke");
    let max_overhead_pct: f64 =
        std::env::var("CRASH_MAX_OVERHEAD_PCT").ok().and_then(|v| v.parse().ok()).unwrap_or(5.0);
    let cfg_name = std::env::var("CRASH_CFG").unwrap_or_else(|_| "TINY".to_string());
    let cfg = Ctx::config_for(&cfg_name);
    // Keep journals on a local-memory filesystem when one exists: CI
    // containers often mount /tmp over 9p/NFS, where every write and
    // fsync is a millisecond-scale protocol round trip — that measures
    // the mount, not the journal. (A real attacker puts the WAL on a
    // local disk too.)
    let shm = PathBuf::from("/dev/shm");
    let dir = if shm.is_dir() { shm } else { std::env::temp_dir() }.join("hsp-crash-example");
    std::fs::create_dir_all(&dir).expect("tmp dir");

    // ---- 1. journaling changes nothing (in-process equivalence) ----
    let overhead_path = dir.join("equivalence.journal");
    let _ = std::fs::remove_file(&overhead_path);
    let lab = crash_lab(&cfg, CHURN);
    let t0 = Instant::now();
    let bare = baseline_on(&lab, SEED, WORKERS, None, None);
    let bare_secs = t0.elapsed().as_secs_f64();
    let lab = crash_lab(&cfg, CHURN);
    let t0 = Instant::now();
    let yardstick = baseline_on(&lab, SEED, WORKERS, None, Some(&overhead_path));
    let journaled_inproc_secs = t0.elapsed().as_secs_f64();
    assert_eq!(bare.digest, yardstick.digest, "journaling changed the outcome");
    assert_eq!(bare.effort, yardstick.effort, "journaling changed the effort ledger");
    assert_eq!(bare.trace_digest, yardstick.trace_digest, "journaling changed the trace");
    println!(
        "journaling equivalence: digest, effort ledger, and trace identical \
         ({} journal bytes; in-process {bare_secs:.3}s bare vs \
         {journaled_inproc_secs:.3}s journaled)",
        yardstick.journal_bytes
    );

    // ---- 2. in-process kill sweep spot check (torn tail) ----
    let committed =
        recover(&overhead_path).expect("overhead journal readable").records.len() as u64;
    let trial_path = dir.join("inproc.journal");
    let lab = crash_lab(&cfg, CHURN);
    let trial = killed_and_resumed_on(
        &lab,
        SEED,
        WORKERS,
        None,
        KillPlan::torn((committed / 2).max(3), 7),
        &trial_path,
    );
    assert!(!trial.completed_before_kill, "kill point never fired");
    assert_eq!(trial.resumes, 1);
    assert_eq!(trial.outcome.digest, yardstick.digest, "in-process resume digest drifted");
    assert_eq!(trial.outcome.effort, yardstick.effort, "in-process resume effort drifted");
    println!(
        "in-process torn-tail kill at record {}: recovered {} records, discarded {}, \
         torn {} B, recovery {} us, resume bit-identical",
        trial.kill_after,
        trial.recovered_records,
        trial.discarded_records,
        trial.torn_bytes,
        trial.recovery_us
    );

    // ---- 3. journal overhead on the real transport, min-of-N ----
    // Volatile vs journaled attacker children over TCP, each on a
    // fresh identically-seeded platform, each self-timing its own
    // recovery + build + crawl. The journaled child of the last rep
    // doubles as the process-kill yardstick.
    // 8 order-alternated reps: each rep runs a volatile and a
    // journaled child back to back (order flipped every rep) and both
    // overhead estimators take medians across reps; --smoke drops to 2
    // (functional coverage only — its overhead number is informational,
    // not gated).
    let reps: usize = std::env::var("CRASH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 2 } else { 8 });
    let journal_y = dir.join("tcp-yardstick.journal");
    let (mut best_volatile, mut best_journaled) = (f64::INFINITY, f64::INFINITY);
    let (mut best_volatile_cpu, mut best_journaled_cpu) = (f64::INFINITY, f64::INFINITY);
    let mut ratios: Vec<f64> = Vec::new();
    let mut direct_pcts: Vec<f64> = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        // Alternate which mode runs first so cache/turbo warm-up bias
        // cannot systematically favor one side.
        let run_volatile = |best: &mut f64, best_cpu: &mut f64| {
            let mut lab = crash_lab(&cfg, CHURN);
            let addr = lab.serve().expect("serve volatile platform");
            let v = child_json(&spawn_child(addr, None, None));
            *best = best.min(field(&v, "attack_secs").as_f64().expect("volatile attack_secs"));
            *best_cpu = best_cpu.min(field(&v, "attack_cpu_secs").as_f64().unwrap_or(0.0));
            v
        };
        let run_journaled = |best: &mut f64, best_cpu: &mut f64| {
            let mut lab = crash_lab(&cfg, CHURN);
            let addr = lab.serve().expect("serve journaled platform");
            let _ = std::fs::remove_file(&journal_y);
            let j = child_json(&spawn_child(addr, Some(&journal_y), None));
            *best = best.min(field(&j, "attack_secs").as_f64().expect("journaled attack_secs"));
            *best_cpu = best_cpu.min(field(&j, "attack_cpu_secs").as_f64().unwrap_or(0.0));
            j
        };
        let (v, j) = if rep % 2 == 0 {
            let v = run_volatile(&mut best_volatile, &mut best_volatile_cpu);
            let j = run_journaled(&mut best_journaled, &mut best_journaled_cpu);
            (v, j)
        } else {
            let j = run_journaled(&mut best_journaled, &mut best_journaled_cpu);
            let v = run_volatile(&mut best_volatile, &mut best_volatile_cpu);
            (v, j)
        };
        assert_eq!(field(&v, "digest"), field(&j, "digest"), "journaling changed the TCP outcome");
        assert_eq!(field(&v, "effort"), field(&j, "effort"), "journaling changed the TCP effort");
        let vs = field(&v, "attack_secs").as_f64().expect("volatile attack_secs");
        let js = field(&j, "attack_secs").as_f64().expect("journaled attack_secs");
        let jd = field(&j, "journal_secs").as_f64().expect("journal_secs");
        eprintln!(
            "[crash] rep {rep}: volatile {vs:.3}s, journaled {js:.3}s ({:+.1}%), \
             journal write path {:.1}ms ({:.2}% of attack){}",
            (js / vs - 1.0) * 100.0,
            jd * 1e3,
            jd / js * 100.0,
            if rep % 2 == 0 { "" } else { " (journaled first)" }
        );
        ratios.push(js / vs);
        direct_pcts.push(jd / js * 100.0);
        last = Some(j);
    }
    let y = last.expect("at least one rep");
    // Two overhead numbers come out of the sweep:
    //
    // - `direct_pct` (gated): the journal's own write-path clock —
    //   encode + group flush + fdatasync + reopen — as a fraction of
    //   the journaled child's attack wall, median across reps. Both
    //   quantities come from the same process, so host scheduling
    //   jitter cancels; this is the number the <=5% gate holds.
    //   It over-counts if anything: none of that time is hidden
    //   behind network waits in this accounting.
    // - `ab_pct` (recorded, informational): the classic A/B wall
    //   comparison, median of per-rep journaled/volatile ratios plus
    //   min-of-N floors. On a quiet machine it lands near zero; under
    //   a noisy hypervisor single reps of this deterministic workload
    //   swing +-40% and no feasible rep count can hold a 5% bound, so
    //   it is evidence, not a gate.
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    direct_pcts.sort_by(|a, b| a.partial_cmp(b).expect("finite pcts"));
    let ab_pct = (ratios[ratios.len() / 2] - 1.0) * 100.0;
    let direct_pct = direct_pcts[direct_pcts.len() / 2];
    let floor_pct = (best_journaled / best_volatile - 1.0) * 100.0;
    println!(
        "journal overhead over TCP: direct write-path cost {direct_pct:.2}% of attack wall \
         (median of {reps} journaled reps, fdatasync every {CRASH_SYNC_EVERY} groups); \
         A/B wall {ab_pct:+.2}% (median paired ratio), floors volatile {best_volatile:.3}s vs \
         journaled {best_journaled:.3}s ({floor_pct:+.2}%), cpu {best_volatile_cpu:.3}s vs \
         {best_journaled_cpu:.3}s"
    );

    // ---- 4. real process kill over TCP ----
    // The victim child is killed against its own platform and its
    // successor resumes there — same surviving platform — then must
    // match the uninterrupted yardstick child bit for bit.
    let tcp_committed =
        recover(&journal_y).expect("yardstick journal readable").records.len() as u64;
    let mut lab_k = crash_lab(&cfg, CHURN);
    let addr_k = lab_k.serve().expect("serve kill platform");
    let journal_k = dir.join("tcp-kill.journal");
    let _ = std::fs::remove_file(&journal_k);
    println!(
        "yardstick child (uninterrupted, TCP): digest {} found {}",
        field(&y, "digest"),
        field(&y, "found")
    );

    let kill_after = (tcp_committed / 2).max(3);
    let killed = spawn_child(addr_k, Some(&journal_k), Some((kill_after, Some(7))));
    assert!(
        !killed.status.success(),
        "victim child survived its kill point: {}",
        String::from_utf8_lossy(&killed.stdout)
    );
    assert!(
        killed.stdout.is_empty(),
        "victim child printed a result before dying: {}",
        String::from_utf8_lossy(&killed.stdout)
    );
    println!(
        "victim child killed at journal record {kill_after} (torn frame): exit {}",
        killed.status
    );

    let r = child_json(&spawn_child(addr_k, Some(&journal_k), None));
    assert_eq!(field(&r, "resumed"), &serde_json::json!(true), "successor child did not resume");
    assert_eq!(
        field(&r, "digest"),
        field(&y, "digest"),
        "process-kill resume: outcome digest drifted"
    );
    assert_eq!(field(&r, "found"), field(&y, "found"), "process-kill resume: found drifted");
    assert_eq!(
        field(&r, "effort"),
        field(&y, "effort"),
        "process-kill resume: effort ledger drifted"
    );
    println!(
        "successor child resumed from the journal in {} us and converged bit-identically \
         (digest {}, found {})",
        field(&r, "recovery_us"),
        field(&r, "digest"),
        field(&r, "found")
    );

    // ---- 5. headline row + gate ----
    let row = serde_json::json!({
        "bench": "crash",
        "config": cfg_name,
        "smoke": smoke,
        "reps": reps,
        "sync_every_groups": CRASH_SYNC_EVERY,
        "volatile_secs": best_volatile,
        "journaled_secs": best_journaled,
        "journal_direct_pct": direct_pct,
        "ab_overhead_pct": ab_pct,
        "journal_bytes": yardstick.journal_bytes,
        "committed_records": committed,
        "tcp_committed_records": tcp_committed,
        "inproc_kill_after": trial.kill_after,
        "inproc_recovered_records": trial.recovered_records,
        "inproc_discarded_records": trial.discarded_records,
        "inproc_torn_bytes": trial.torn_bytes,
        "inproc_recovery_us": trial.recovery_us,
        "process_kill_after": kill_after,
        "process_resume_recovery_us": field(&r, "recovery_us"),
        "process_resume_bit_identical": true,
        "found": yardstick.found,
    });
    // Only a full run extends the history; a smoke run prints its row.
    if smoke {
        println!("{}", serde_json::to_string(&row).expect("row serializes"));
        println!(
            "crash smoke complete: direct journal cost {direct_pct:.2}% of attack wall \
             (informational at {reps} reps), in-process and process-level resumes bit-identical"
        );
    } else {
        append_headline(row);
        assert!(
            direct_pct <= max_overhead_pct,
            "journal write-path cost {direct_pct:.2}% of attack wall exceeds the \
             {max_overhead_pct:.1}% gate"
        );
        println!(
            "crash gate complete: direct journal cost {direct_pct:.2}% (<= {max_overhead_pct:.1}%, \
             A/B wall {ab_pct:+.2}%), in-process and process-level resumes bit-identical"
        );
    }
}
