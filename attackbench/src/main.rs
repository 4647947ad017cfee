//! Wall-clock benchmark of the stranger's full attack (basic + enhanced
//! + evaluate), end to end and layer by layer. See `README.md`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path attackbench/Cargo.toml -- \
//!     --workload metro_city --seed 0 --seconds 30 --trace 0
//! cargo run --release --offline --manifest-path attackbench/Cargo.toml -- --self-test
//! ```

mod affinity;
mod attack;
mod layers;
mod probe;
mod stats;
mod workloads;

use affinity::OneCpu;
use hs_profiler::obs::read_memory;
use hs_profiler::synth::{MetroConfig, ScenarioConfig};
use stats::{median, p50_p99_us, quantile_sorted};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{AttackRecord, LiveHs1, MetroCity, Pinned, TcpCrowd, Workload};

/// Every run pools at least this many transport samples for
/// `request_us`, so p99 has 100 samples beyond it.
const MIN_SAMPLES: usize = 10_000;
/// Attacks per phase, whatever `--seconds` says: the digest check needs
/// two to compare.
const MIN_ATTACKS: usize = 2;

/// Attacker seeds of the labs these workloads mirror (the metro bench's
/// and the crash-only attacker's).
const METRO_ATTACKER_SEED: u64 = 0x3e7_a77a;
const HS1_ATTACKER_SEED: u64 = 0xC4A5;

const HS1_DIGEST: u64 = 0xf639_cd02_174e_c62b;
const TINY_DIGEST: u64 = 0x932c_a096_e900_d016;
const METRO_CITY_DIGESTS: [u64; 40] = [
    0x4149_30ac_2a50_be6c,
    0xd485_71ea_601f_8a58,
    0xd38e_6d57_3d35_eb85,
    0x457a_4331_413d_9939,
    0x5d79_55c0_741f_4053,
    0xdda5_939f_f62e_601c,
    0x367c_597c_d202_65f7,
    0x8903_cb66_24f9_5408,
    0xe1c0_2248_0f2a_735c,
    0xcb70_677d_9c3c_a96f,
    0xc3d3_be74_2636_e9c4,
    0x8db6_9a2a_aa15_f7f1,
    0xd894_2c2e_c522_a894,
    0xa448_6fc9_6cb4_8791,
    0x10a5_a341_13ac_2dad,
    0x89a9_c969_96ea_83a1,
    0xab48_5cdf_c522_562c,
    0xbdb6_1d16_4163_7c7e,
    0x155e_3478_a8fa_6ca3,
    0x4031_11b2_d651_615e,
    0x6101_abb5_e511_b9c5,
    0x5a1f_865b_e9c1_e434,
    0xcd13_22ca_254c_272b,
    0xe7ff_0129_2d4c_618e,
    0x6b5e_dc9c_07cc_0053,
    0x70a0_ed6d_3a69_ac22,
    0x99d0_026b_def5_7675,
    0xf8e0_033a_01e7_a8e2,
    0x06d6_b0c6_fe44_ab9a,
    0xf094_2c27_d64e_e325,
    0xeebe_339d_0ec6_640b,
    0x7e9f_3299_1687_48ef,
    0x6a52_877c_c865_5baf,
    0xc4c7_421d_9c4d_7666,
    0xf3d0_bc4e_6968_13df,
    0x43d3_d68f_fd39_ab09,
    0x8d87_ff80_0029_985f,
    0xde13_701f_a704_ec2f,
    0x1454_81af_f0ef_82d5,
    0xa813_3f90_0b2d_cb1d,
];
const METRO_TINY_DIGESTS: [u64; 4] =
    [0xfa4d_f3b6_4125_70ac, 0x6bfa_4906_1c16_e806, 0x89a1_1db0_f763_d245, 0x23cc_3aba_d6a4_08dc];

/// The parent commit's results on the default worlds.
fn pinned(workload: &str, tiny: bool) -> Pinned {
    let school = |found, roster, requests, digests: &'static [u64], mutations| Pinned {
        found,
        roster,
        requests,
        school_digests: digests,
        mutations,
    };
    let live = (workload == "live_hs1").then_some(if tiny {
        (0x20f1_c51f_ada6_d68c, 11)
    } else {
        (0x7e66_a423_8a94_0367, 64)
    });
    match (workload, tiny) {
        ("metro_city", false) => school(45_656, 48_000, 102_534, &METRO_CITY_DIGESTS, None),
        ("metro_city", true) => school(615, 640, 1_442, &METRO_TINY_DIGESTS, None),
        (_, false) => school(253, 320, 1_485, &[HS1_DIGEST], live),
        (_, true) => school(102, 114, 383, &[TINY_DIGEST], live),
    }
}

/// Which configs a workload runs at.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    Tiny,
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    world_seed: Option<u64>,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Option<Opts>, String> {
    let mut opts =
        Opts { workload: String::new(), seed: 0, seconds: 30.0, trace: false, world_seed: None };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = parse_u64(value)?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--world-seed" => opts.world_seed = Some(parse_u64(value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Some(opts))
}

/// Busy and stolen jiffies of all CPUs so far, from `/proc/stat`.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|v| v.parse().ok()).collect();
    let (idle, steal) = (f.get(3)? + f.get(4)?, *f.get(7)?);
    Some((f.iter().sum::<u64>() - idle - steal, steal))
}

fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The repository root: the parent of this package's directory.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a git repository has none.
fn commit() -> String {
    let git = repo_root().join(".git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else { return head };
    read(git.join(name))
        .or_else(|| {
            read(git.join("packed-refs"))?.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({name} unresolved)"))
}

/// Build the workload named `name`.
///
/// The world seed defaults to the config's own, so every run can check
/// the results pinned from the parent commit. `seed` is the attacker
/// seed: the seats are seeded with the config's attacker seed XOR
/// `seed`, so 0 gives the config's own. A fault-free attack's results
/// may not depend on it, which is why the pinned check applies at any
/// `seed`.
fn workload(
    name: &str,
    scale: Scale,
    seed: u64,
    world_seed: Option<u64>,
) -> Result<(Box<dyn Workload>, usize), String> {
    let nproc = nproc();
    let work = Path::new(env!("CARGO_MANIFEST_DIR")).join(".work");
    let tiny = scale == Scale::Tiny;
    match name {
        "metro_city" => {
            let mut cfg = if tiny { MetroConfig::tiny() } else { MetroConfig::city() };
            let default_seed = cfg.seed;
            cfg.seed = world_seed.unwrap_or(default_seed);
            let pinned = (cfg.seed == default_seed).then(|| pinned(name, tiny));
            Ok((Box::new(MetroCity::new(cfg, nproc, METRO_ATTACKER_SEED ^ seed, pinned)), 9))
        }
        "tcp_crowd" | "live_hs1" => {
            let mut cfg = if tiny { ScenarioConfig::tiny() } else { ScenarioConfig::hs1() };
            let default_seed = cfg.seed;
            cfg.seed = world_seed.unwrap_or(default_seed);
            let attacker = HS1_ATTACKER_SEED ^ seed;
            let live = name == "live_hs1";
            let pinned = (cfg.seed == default_seed).then(|| pinned(name, tiny));
            if live {
                Ok((Box::new(LiveHs1::new(cfg, attacker, pinned)), 21))
            } else {
                std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
                let journal = work.join("tcp_crowd.journal");
                Ok((Box::new(TcpCrowd::new(cfg, attacker, journal, pinned)), 21))
            }
        }
        _ => Err(format!("unknown workload {name:?} (metro_city, tcp_crowd, live_hs1)")),
    }
}

/// What one run measured and checked.
struct RunResult {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
}

fn summarize(label: &str, records: &[AttackRecord]) {
    let walls: Vec<f64> = records.iter().map(|r| r.wall_s).collect();
    let rest = if walls.len() > 1 { median(&walls[1..]) } else { f64::NAN };
    let mut ns: Vec<u64> = walls.iter().map(|w| (w * 1e9) as u64).collect();
    ns.sort_unstable();
    println!(
        "{label}: {} attacks; first {:.4} s, median of the rest {:.4} s, quartiles {:.4} / {:.4} s; \
         found {}/{} in {} requests per attack",
        records.len(),
        walls[0],
        rest,
        quantile_sorted(&ns, 0.25) / 1e9,
        quantile_sorted(&ns, 0.75) / 1e9,
        records[0].found,
        records[0].roster,
        records[0].requests,
    );
}

/// Run attacks until `budget` seconds have passed and at least
/// [`MIN_ATTACKS`] attacks and `min_samples` transport samples are in.
/// The first traced attack captures its inputs for re-timing.
fn phase(
    w: &mut dyn Workload,
    traced: bool,
    budget: f64,
    min_samples: usize,
    out: &mut Vec<AttackRecord>,
) -> Result<(), String> {
    let started = Instant::now();
    let mut samples = 0;
    let mut n = 0;
    while n < MIN_ATTACKS || started.elapsed().as_secs_f64() < budget || samples < min_samples {
        let record = w.attack(traced, traced && n == 0)?;
        samples += record.samples.len();
        out.push(record);
        n += 1;
    }
    Ok(())
}

fn run(w: &mut dyn Workload, setup_reps: usize, seconds: f64, trace: bool) -> RunResult {
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    let mut setups = Vec::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut retimed = None;
    let mut peak_bytes = 0;
    // A one-thread workload runs pinned from its first set-up to the end
    // of the run (see `affinity`).
    let mut pin = None;
    let outcome = (|| -> Result<(), String> {
        if w.footprint().one_cpu() {
            pin = Some(OneCpu::pin().map_err(|e| format!("pinning to one CPU: {e}"))?);
        }
        setups.push(w.setup()?);
        let budget = if trace { seconds / 2.0 } else { seconds };
        phase(w, false, budget, if trace { 0 } else { MIN_SAMPLES }, &mut untraced)?;
        if trace {
            phase(w, true, budget, 0, &mut traced)?;
            retimed = Some(w.retime()?);
        }
        // The peak covers one world and the attacks on it. The other
        // set-ups are timed after it: each rebuilds the world, and the
        // allocator's reuse of the freed one would move the peak.
        peak_bytes = read_memory().peak_estimate_bytes().unwrap_or(0);
        for _ in 1..setup_reps {
            setups.push(w.setup()?);
        }
        Ok(())
    })();
    w.finish();
    drop(pin);
    if let Err(e) = outcome {
        result.problems.push(e);
    }

    let all = untraced.iter().chain(&traced);
    for r in all.clone() {
        result.attempted += r.samples.len() as u64;
        result.failed += r.failed;
    }
    if result.failed > 0 {
        result.problems.push(format!("{} requests failed", result.failed));
    }
    let Some(first) = untraced.first() else {
        return result;
    };
    let reference = first.digest();
    let mismatched = all.filter(|r| r.digest() != reference).count();
    if mismatched > 0 {
        result.problems.push(format!(
            "{mismatched} attacks did not reproduce the first attack's digest {reference:#018x}"
        ));
    }
    match w.pinned() {
        Some(p) => match p.check(first) {
            Ok(()) => println!("pinned: results equal the parent commit's on the default world"),
            Err(e) => result.problems.push(e),
        },
        None => println!("pinned: not checked (non-default world seed)"),
    }
    println!("outcome digest {reference:#018x} (every attack of the run must reproduce it)");

    let setup_secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let build_s = median(&setups.iter().map(|s| s.build_s).collect::<Vec<_>>());
    println!(
        "set-up: median {:.4} s of {} {:.4?} (world build median {:.4} s, {} users)",
        median(&setup_secs),
        setups.len(),
        setup_secs,
        build_s,
        setups[0].users,
    );
    summarize("untraced", &untraced);
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_s).collect();
    let mut samples: Vec<u64> = untraced.iter().flat_map(|r| r.samples.iter().copied()).collect();
    let (p50, p99) = p50_p99_us(&mut samples);
    let requests: u64 = untraced.iter().map(|r| r.requests).sum();
    let attack_secs: f64 = walls.iter().sum();
    let peak = peak_bytes as f64 / (1u64 << 20) as f64;
    println!(
        "request_us: {} samples; attack_s: {} attacks; requests_per_s: {requests} requests \
         in {attack_secs:.3} s",
        samples.len(),
        walls.len(),
    );
    result.end_to_end = vec![
        ("setup_s", median(&setup_secs), "s"),
        ("attack_s", median(&walls), "s"),
        ("requests_per_s", requests as f64 / attack_secs, "1/s"),
        ("request_us.p50", p50, "us"),
        ("request_us.p99", p99, "us"),
        ("peak_rss_mib", peak, "MiB"),
    ];

    if let (Some(retimed), false) = (retimed, traced.is_empty()) {
        summarize("traced", &traced);
        let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall_s).collect();
        let overhead = 100.0 * (median(&traced_walls) / median(&walls) - 1.0);
        println!("obs.trace_overhead_pct: {overhead:.2} (traced vs untraced attack_s medians)");
        let attacks: Vec<layers::Layers> = traced.into_iter().filter_map(|r| r.layers).collect();
        layers::print_split(&attacks);
        result.per_layer = layers::per_layer(&layers::TraceSummary {
            attacks: &attacks,
            retimed: &retimed,
            synth_build_s: build_s,
            synth_users: setups[0].users,
            trace_overhead_pct: overhead,
        });
    }
    result
}

fn print_metrics(metrics: &[(&str, f64, &str)]) {
    for (name, v, unit) in metrics {
        println!("  {name:<34} {v:>16.6} {unit}");
    }
}

fn json_result(result: &RunResult, trace: bool) -> String {
    let metrics = if trace { &result.per_layer } else { &result.end_to_end };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            // JSON has no NaN; a metric that could not be computed is 0.
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.problems.is_empty(),
        result.attempted,
        result.failed,
        body.join(", ")
    )
}

/// Run all three workloads on tiny configs, traced, at the default
/// seeds, with every check on.
fn self_test() -> Result<(), String> {
    for name in ["metro_city", "tcp_crowd", "live_hs1"] {
        println!("== self-test {name}");
        let (mut w, _) = workload(name, Scale::Tiny, 0, None)?;
        if w.pinned().is_none() {
            return Err(format!("{name}: default seeds must be pinned"));
        }
        let result = run(w.as_mut(), 2, 0.2, true);
        if !result.problems.is_empty() {
            return Err(format!("{name}: {}", result.problems.join("; ")));
        }
        let metrics = result.end_to_end.iter().chain(&result.per_layer);
        if result.per_layer.len() != layers::PER_LAYER.len()
            || metrics.clone().any(|(_, v, _)| !v.is_finite())
        {
            return Err(format!("{name}: missing or non-finite metrics"));
        }
        print_metrics(&result.per_layer);
    }
    println!("self-test passed");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => match self_test() {
            Ok(()) => return,
            Err(e) => {
                eprintln!("self-test failed: {e}");
                std::process::exit(1);
            }
        },
        Err(e) => {
            eprintln!("attackbench: {e}");
            std::process::exit(2);
        }
    };
    let (mut w, setup_reps) =
        match workload(&opts.workload, Scale::Full, opts.seed, opts.world_seed) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("attackbench: {e}");
                std::process::exit(2);
            }
        };
    let nproc = nproc();
    println!(
        "attackbench {} seed={} seconds={} trace={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    let f = w.footprint();
    println!("host: available_parallelism={nproc}; commit {}", commit());
    println!("{}", f.describe());
    if f.busy_threads > nproc || f.connections > nproc {
        eprintln!(
            "attackbench: refusing {}: it keeps more threads busy or opens more connections \
             than nproc",
            opts.workload
        );
        std::process::exit(3);
    }
    println!("{}", w.describe());
    let jiffies = cpu_jiffies();
    let result = run(w.as_mut(), setup_reps, opts.seconds, opts.trace);
    if let (Some((busy0, steal0)), Some((busy1, steal1))) = (jiffies, cpu_jiffies()) {
        // Time the hypervisor gave other guests while this one had work.
        let (busy, steal) = (busy1 - busy0, steal1 - steal0);
        println!(
            "host: {:.1}% of this run's demanded CPU time was stolen by the hypervisor",
            100.0 * steal as f64 / (busy + steal).max(1) as f64
        );
    }
    println!("end-to-end (untraced attacks):");
    print_metrics(&result.end_to_end);
    if opts.trace {
        println!("per-layer (traced attacks):");
        print_metrics(&result.per_layer);
    }
    for p in &result.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{}", json_result(&result, opts.trace));
    if !result.problems.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_on_tiny_configs() {
        super::self_test().expect("self-test");
    }
}
