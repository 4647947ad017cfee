//! Micro-benchmarks of the observability substrate, guarding the
//! "recording is atomics-only" contract: counter/gauge adds, histogram
//! records, pre-resolved route observation, and full registry
//! snapshot/exposition. Headline per-op numbers are printed after the
//! `obs_hot` group.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hsp_obs::{Registry, RouteMetrics};
use std::time::Instant;

/// Mean nanoseconds per op of `f` over `iters` runs (one warmup pass).
fn time_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Print one run's headline numbers, one `name_ns` line per op.
fn print_headline(entries: &[(&str, f64)]) {
    for (name, ns) in entries {
        println!("[bench] obs {name}_ns = {ns:.2}");
    }
}

fn obs_hot_path(c: &mut Criterion) {
    let reg = Registry::new();
    let counter = reg.counter("bench_counter_total");
    let gauge = reg.gauge("bench_gauge");
    let hist = reg.histogram("bench_hist_us");
    let route = RouteMetrics::register(&reg, "/bench/:uid");

    let mut group = c.benchmark_group("obs_hot");
    group.bench_function("counter_add", |b| b.iter(|| counter.add(black_box(1))));
    group.bench_function("gauge_inc_dec", |b| {
        b.iter(|| {
            gauge.inc();
            gauge.dec();
        })
    });
    group.bench_function("histogram_record", |b| {
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 40));
        })
    });
    group.bench_function("route_observe", |b| {
        b.iter(|| route.observe(black_box(200), black_box(137), 64, 512))
    });
    group.finish();

    // Self-timed headline numbers (the criterion stub prints but does
    // not expose its means).
    const ITERS: u64 = 100_000;
    let counter_ns = time_ns(ITERS, || counter.add(black_box(1)));
    let mut v = 1u64;
    let hist_ns = time_ns(ITERS, || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        hist.record(black_box(v >> 40));
    });
    let route_ns = time_ns(ITERS, || route.observe(black_box(200), black_box(137), 64, 512));
    let snapshot_ns = time_ns(1_000, || {
        black_box(reg.snapshot());
    });
    let render_ns = time_ns(1_000, || {
        black_box(reg.render_prometheus());
    });
    print_headline(&[
        ("counter_add", counter_ns),
        ("histogram_record", hist_ns),
        ("route_observe", route_ns),
        ("registry_snapshot", snapshot_ns),
        ("render_prometheus", render_ns),
    ]);
}

fn obs_exposition(c: &mut Criterion) {
    // A registry about the size a full-attack lab produces.
    let reg = Registry::new();
    for i in 0..8 {
        let r = RouteMetrics::register(&reg, ["/a", "/b", "/c", "/d", "/e", "/f", "/g", "/h"][i]);
        for k in 0..64u64 {
            r.observe(200, k * 17 + 1, 64, 900);
        }
    }
    let mut group = c.benchmark_group("obs_exposition");
    group.bench_function("snapshot", |b| b.iter(|| black_box(reg.snapshot())));
    group.bench_function("render_prometheus", |b| b.iter(|| black_box(reg.render_prometheus())));
    group.finish();
}

criterion_group!(benches, obs_hot_path, obs_exposition);
criterion_main!(benches);
