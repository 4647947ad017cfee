//! Differential test of the scrape layer: the single-pass scrapers
//! (`parse_profile`, `parse_listing_stamped`) must return exactly what
//! the DOM scrapers in `oracle/` return, on every page a fault-free
//! platform serves, on live-world stamped and tombstone pages, on every
//! prefix of a sample of those pages (what truncation leaves), and on
//! generated tag soup and arbitrary strings.

mod oracle;

use hsp_crawler::scrape::{parse_listing_stamped, parse_profile};
use hsp_graph::UserId;
use hsp_http::{DirectExchange, Exchange, Request};
use hsp_platform::{render, Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, Policy};
use hsp_synth::{generate, Scenario, ScenarioConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn assert_agrees(html: &str) {
    assert_eq!(parse_profile(html), oracle::parse_profile(html), "profile scrape of {html:?}");
    assert_eq!(
        parse_listing_stamped(html),
        oracle::parse_listing_stamped(html),
        "listing scrape of {html:?}"
    );
}

fn tiny() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| generate(&ScenarioConfig::tiny()))
}

/// Every page a fault-free tiny platform serves a logged-in stranger:
/// each school's search pages, and each user's profile and every page
/// of their friend list (a hidden list is a 403 text body).
fn served_pages() -> &'static Vec<String> {
    static PAGES: OnceLock<Vec<String>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let net = &tiny().network;
        let platform = Platform::new(
            Arc::new(net.clone()),
            Arc::new(FacebookPolicy::new()),
            PlatformConfig::default(),
        );
        let mut x = DirectExchange::new(platform.into_handler());
        x.exchange(Request::post_form("/signup", &[("user", "probe"), ("pass", "pw")])).unwrap();
        x.exchange(Request::post_form("/login", &[("user", "probe"), ("pass", "pw")])).unwrap();
        let mut pages = Vec::new();
        let mut fetch_all = |mut url: String| loop {
            let resp = x.exchange(Request::get(&url)).unwrap();
            let body = String::from_utf8_lossy(&resp.body).into_owned();
            let next = oracle::parse_listing_stamped(&body).1;
            pages.push(body);
            match next {
                Some(n) => url = n,
                None => break,
            }
        };
        for school in net.schools() {
            fetch_all(format!("/find-friends?school={}", school.id));
        }
        for u in net.user_ids() {
            fetch_all(format!("/profile/{u}"));
            fetch_all(format!("/friends/{u}"));
        }
        pages
    })
}

/// Live-world pages rendered directly: every user's stamped profile and
/// tombstone, and a stamped friend-list page per user.
fn stamped_pages() -> &'static Vec<String> {
    static PAGES: OnceLock<Vec<String>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let net = &tiny().network;
        let policy = FacebookPolicy::new();
        let mut pages = Vec::new();
        for u in net.user_ids() {
            let gen = u.0 % 50;
            pages.push(render::profile_page_stamped(net, &policy.stranger_view(net, u), gen));
            pages.push(render::tombstone_page(u, gen));
            let entries: Vec<(UserId, String)> = net
                .friends(u)
                .iter()
                .take(20)
                .map(|&f| (f, net.user(f).profile.full_name()))
                .collect();
            let next = (entries.len() == 20).then(|| format!("/friends/{u}?page=1"));
            pages.push(render::listing_page_stamped("friends", &entries, next, gen));
        }
        pages
    })
}

#[test]
fn every_served_page_scrapes_like_the_dom() {
    let pages = served_pages();
    assert!(pages.len() > 3_000, "only {} pages served", pages.len());
    for kind in ["id=\"profile\"", "id=\"friends\"", "id=\"results\"", "id=\"next-page\""] {
        assert!(pages.iter().any(|p| p.contains(kind)), "no served page has {kind}");
    }
    pages.iter().for_each(|p| assert_agrees(p));
}

#[test]
fn stamped_and_tombstone_pages_scrape_like_the_dom() {
    stamped_pages().iter().for_each(|p| assert_agrees(p));
}

/// Truncation (a fault, or a cut connection) leaves a prefix of a page.
/// Every char-boundary prefix of 40 pages: the longest served profiles
/// (the most fields), the longest served listings, and stamped and
/// tombstone pages.
#[test]
fn every_prefix_of_sampled_pages_scrapes_like_the_dom() {
    let mut served: Vec<&String> = served_pages().iter().collect();
    served.sort_by_key(|p| std::cmp::Reverse(p.len()));
    let profiles = served.iter().filter(|p| p.contains("id=\"profile\"")).take(20);
    let listings = served.iter().filter(|p| p.contains("profile-link")).take(12);
    let stamped = stamped_pages().iter().step_by(97).take(8);
    let sample: Vec<&str> =
        profiles.chain(listings).map(|p| p.as_str()).chain(stamped.map(String::as_str)).collect();
    assert_eq!(sample.len(), 40);
    for page in sample {
        for cut in (0..=page.len()).filter(|&i| page.is_char_boundary(i)) {
            assert_agrees(&page[..cut]);
        }
    }
}

/// Soup fragments drawn from what the renderer emits, plus the markup
/// edge cases the parser recovers from.
fn soup_part() -> impl Strategy<Value = String> {
    let tag = prop_oneof![
        Just("div"),
        Just("span"),
        Just("ul"),
        Just("li"),
        Just("a"),
        Just("h1"),
        Just("img"),
        Just("br"),
        Just("p"),
        Just("SPAN"),
        Just("Ul"),
    ];
    let class = prop_oneof![
        Just("name"),
        Just("gender"),
        Just("profile-photo"),
        Just("networks"),
        Just("network"),
        Just("education"),
        Just("edu"),
        Just("current-city"),
        Just("hometown"),
        Just("relationship"),
        Just("interested-in"),
        Just("birthday"),
        Just("photos-count"),
        Just("wall-count"),
        Just("wall"),
        Just("wall-post"),
        Just("contact"),
        Just("friends-link"),
        Just("message-button"),
        Just("entry"),
        Just("profile-link"),
    ];
    let attr = prop_oneof![
        (class.clone(), class).prop_map(|(a, b)| format!(" class=\"{a} {b}\"")),
        prop_oneof![Just("profile"), Just("next-page"), Just("results"), Just("&#112;rofile")]
            .prop_map(|id| format!(" id=\"{id}\"")),
        prop_oneof![
            Just(" data-uid=\"u3\""),
            Just(" data-uid=u&#57;"),
            Just(" DATA-UID='u4'"),
            Just(" data-gen=\"7\""),
            Just(" data-gen=x"),
            Just(" data-tombstone=\"1\""),
            Just(" data-school=\"s2\""),
            Just(" data-kind=\"highschool\""),
            Just(" data-kind='college'"),
            Just(" data-kind=gradschool"),
            Just(" data-year=\"2014\""),
            Just(" data-city=\"c1\""),
            Just(" data-date=\"1994-02-28\""),
            Just(" data-date=\"1994-02-30\""),
            Just(" data-count=\"19\""),
            Just(" data-author=\"u5\""),
            Just(" href=\"/profile/u8\""),
            Just(" href=/profile/u9"),
            Just(" href=\"/find-friends?school=s0&amp;page=2&#39;\""),
            Just(" id"),
            Just(" class"),
            Just(" = "),
            Just(" /"),
        ]
        .prop_map(str::to_string),
    ];
    let start_tag =
        (tag.clone(), prop::collection::vec(attr, 0..4), 0u8..6).prop_map(|(tag, attrs, end)| {
            let end = match end {
                0 => "/>",
                1 => "",
                _ => ">",
            };
            format!("<{tag}{}{end}", attrs.concat())
        });
    prop_oneof![
        start_tag.clone(),
        start_tag.clone(),
        start_tag,
        tag.prop_map(|t| format!("</{t}>")),
        prop_oneof![
            Just("</div >"),
            Just("</p>"),
            Just("</"),
            Just("</ li>"),
            Just("<!-- <div id=\"profile\"> -->"),
            Just("<!--"),
            Just("-->"),
            Just("<!DOCTYPE html>"),
            Just("<"),
            Just(">"),
            Just("\""),
            Just("'"),
            Just("&amp;"),
            Just("&#39;"),
            Just("&lt;"),
            Just("&nbsp;"),
            Just("&#32;"),
            Just("&bogus;"),
            Just("&"),
            Just("é"),
            Just(" "),
        ]
        .prop_map(str::to_string),
        "[a-z <>&;#/=\"']{0,6}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn tag_soup_scrapes_like_the_dom(parts in prop::collection::vec(soup_part(), 0..48)) {
        assert_agrees(&parts.concat());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_strings_scrape_like_the_dom(input in ".*") {
        assert_agrees(&input);
    }
}
