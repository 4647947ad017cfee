//! Micro-benchmarks of the hot substrate paths: HTTP codec, page
//! render and scrape, reverse-lookup scoring, Jaccard, calendar
//! arithmetic, and world generation.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hsp_core::{rank_candidates, AttackConfig, CoreUser};
use hsp_graph::{jaccard_index, Date, SchoolId, UserId};
use hsp_http::wire::{decode_request, encode_request, Decoded};
use hsp_http::Request;
use hsp_synth::{generate, ScenarioConfig};
use std::hint::black_box;

fn http_codec(c: &mut Criterion) {
    let req = Request::get("/friends/u12345?page=7")
        .header("Host", "127.0.0.1:8080")
        .header("Cookie", "sid=sid-3-1a2b3c4d");
    let wire = encode_request(&req);
    let resp = hsp_http::Response::html("x".repeat(2048)).set_cookie("sid", "sid-3-1a2b3c4d");
    let mut group = c.benchmark_group("micro_http");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("encode_request", |b| b.iter(|| black_box(encode_request(&req))));
    group.bench_function("encode_response_2k", |b| {
        b.iter(|| black_box(hsp_http::wire::encode_response(&resp)))
    });
    group.bench_function("decode_request", |b| {
        b.iter(|| {
            let mut buf = BytesMut::from(&wire[..]);
            match decode_request(&mut buf).unwrap() {
                Decoded::Complete(r) => black_box(r.target.len()),
                Decoded::Incomplete => unreachable!(),
            }
        })
    });
    group.finish();
}

fn html_scrape(c: &mut Criterion) {
    // A realistic profile page (as rendered by the platform).
    let mut net = hsp_graph::Network::new(Date::ymd(2012, 3, 15));
    let city = net.add_city("Rivertown", "NY");
    let school = net.add_school(hsp_graph::School {
        id: SchoolId(0),
        name: "Rivertown High".into(),
        city,
        kind: hsp_graph::SchoolKind::HighSchool,
        public_enrollment_estimate: 500,
    });
    let mut view = hsp_policy::PublicView::minimal(
        UserId(5),
        "Cy Hale".into(),
        Some(hsp_graph::Gender::Male),
        true,
        vec![school],
    );
    view.education.push(hsp_graph::EducationEntry::high_school(school, 2013));
    view.current_city = Some(city);
    view.friend_list_visible = true;
    view.photos_shared = Some(33);
    view.message_button = true;
    let html = hsp_platform::render::profile_page(&net, &view);
    let mut group = c.benchmark_group("micro_html");
    group.throughput(Throughput::Bytes(html.len() as u64));
    group.bench_function("render_profile_page", |b| {
        b.iter(|| black_box(hsp_platform::render::profile_page(&net, &view).len()))
    });
    group.bench_function("parse_profile_page", |b| {
        b.iter(|| black_box(hsp_crawler::parse_profile(&html)))
    });
    group.bench_function("render_parse_roundtrip", |b| {
        b.iter(|| {
            let page = hsp_platform::render::profile_page(&net, &view);
            black_box(hsp_crawler::parse_profile(&page))
        })
    });
    group.finish();

    // A full friend-list page: 20 entries and a next-page link.
    let entries: Vec<(UserId, String)> =
        (0..20).map(|i| (UserId(1_000 + i), format!("Friend Number{i}"))).collect();
    let listing = hsp_platform::render::listing_page_stamped(
        "friends",
        &entries,
        Some("/friends/u5?page=1".into()),
        3,
    );
    let mut group = c.benchmark_group("micro_html_listing");
    group.throughput(Throughput::Bytes(listing.len() as u64));
    group.bench_function("render_listing_page_20", |b| {
        b.iter(|| {
            let next = Some("/friends/u5?page=1".to_string());
            black_box(
                hsp_platform::render::listing_page_stamped("friends", &entries, next, 3).len(),
            )
        })
    });
    group.bench_function("parse_listing_stamped_20", |b| {
        b.iter(|| black_box(hsp_crawler::scrape::parse_listing_stamped(&listing)))
    });
    group.finish();
}

fn reverse_lookup_scoring(c: &mut Criterion) {
    // 50 cores × 400 friends drawn from 10k users — HS2-scale scoring.
    let config = AttackConfig::new(SchoolId(0), 2012, 1500);
    let mut state = 7u64;
    let mut rand = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let core: Vec<CoreUser> = (0..50)
        .map(|i| CoreUser {
            id: UserId(100_000 + i),
            grad_year: 2012 + (i % 4) as i32,
            friends: (0..400).map(|_| UserId((rand() % 10_000) as u64)).collect(),
        })
        .collect();
    c.bench_function("micro_rank_candidates_50x400", |b| {
        b.iter(|| black_box(rank_candidates(&config, &core).len()))
    });
}

fn jaccard(c: &mut Criterion) {
    let a: Vec<UserId> = (0..300).map(|i| UserId(i * 2)).collect();
    let b_list: Vec<UserId> = (0..300).map(|i| UserId(i * 3)).collect();
    c.bench_function("micro_jaccard_300", |b| b.iter(|| black_box(jaccard_index(&a, &b_list))));
}

fn calendar(c: &mut Criterion) {
    c.bench_function("micro_date_roundtrip", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for d in 0..365 {
                let date = Date::from_days(15_000 + d);
                acc += date.to_days() + i64::from(Date::age_on(Date::ymd(1997, 6, 1), date));
            }
            black_box(acc)
        })
    });
}

fn world_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro_generate");
    group.sample_size(10);
    group.bench_function("tiny_world", |b| {
        b.iter(|| black_box(generate(&ScenarioConfig::tiny()).network.user_count()))
    });
    group.finish();
}

criterion_group!(
    micro,
    http_codec,
    html_scrape,
    reverse_lookup_scoring,
    jaccard,
    calendar,
    world_generation
);
criterion_main!(micro);
