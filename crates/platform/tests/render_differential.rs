//! Differential test of the page writer: `hsp_platform::render` must
//! write exactly the bytes the DOM renderer in `oracle/` serialises, on
//! every page a fault-free tiny platform serves (frozen, live, and under
//! the Google+ policy), on each user's profile, stamped profile and
//! tombstone, on every HS1 profile view, on arbitrary profile views whose
//! strings hold markup characters and multi-byte UTF-8, and on listing
//! pages whose names and next link hold them too.

mod oracle;

use hsp_crawler::scrape::parse_listing_stamped;
use hsp_graph::{
    CityId, ContactInfo, Date, EducationEntry, EducationKind, Gender, InterestedIn, Network,
    PrivacySettings, ProfileContent, Registration, RelationshipStatus, Role, School, SchoolId,
    SchoolKind, User, UserId,
};
use hsp_http::resilient::H_VIRTUAL_NOW;
use hsp_http::{DirectExchange, Exchange, Request, Status};
use hsp_platform::{render, MutationPlan, Platform, PlatformConfig};
use hsp_policy::{FacebookPolicy, GooglePlusPolicy, Policy, PublicView};
use hsp_synth::{generate, ScenarioConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn tiny() -> &'static Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(|| generate(&ScenarioConfig::tiny()).network)
}

/// `ids` under the names the platform lists them by.
fn named(net: &Network, ids: &[UserId]) -> Vec<(UserId, String)> {
    ids.iter().map(|&u| (u, net.user(u).profile.full_name())).collect()
}

/// Pages of each kind compared by [`served_pages_match_the_oracle`].
#[derive(Default, Debug)]
struct Served {
    profiles: usize,
    tombstones: usize,
    listings: usize,
    next_links: usize,
    stamped: usize,
    circles: usize,
}

/// Follow one listing from `url` through its next links, holding each
/// page to the oracle's rendering of the ids, next link and stamp read
/// back from it, named from `net`. Stops at the first refusal (a hidden
/// list, or no circles on this platform).
fn listing_matches_the_oracle(
    get: &mut dyn FnMut(&str) -> (Status, String),
    net: &Network,
    live: bool,
    seen: &mut Served,
    list_id: &str,
    url: &str,
) {
    let mut url = url.to_string();
    loop {
        let (status, body) = get(&url);
        if status != Status::OK {
            return;
        }
        let (ids, next, gen) = parse_listing_stamped(&body);
        assert_eq!(gen.is_some(), live, "{url}: stamp on a live page only");
        let want = oracle::listing_page_inner(list_id, &named(net, &ids), next.clone(), gen);
        assert_eq!(body, want, "{url}");
        seen.listings += 1;
        seen.stamped += usize::from(gen.is_some());
        seen.circles += usize::from(list_id == "circles");
        match next {
            Some(n) => {
                seen.next_links += 1;
                url = n;
            }
            None => return,
        }
    }
}

/// Fetch every page a logged-in stranger can get from a fault-free tiny
/// platform at the end of its mutation plan, and hold each to the
/// oracle's rendering of that world: a profile from the policy's view of
/// its user (a tombstone for a tombstoned one), and every page of every
/// search, friend list and circle list.
fn served_pages_match_the_oracle(policy: Arc<dyn Policy>, mutations: MutationPlan) -> Served {
    let now = mutations.horizon_ms;
    let platform = Platform::new(
        Arc::new(tiny().clone()),
        Arc::clone(&policy),
        PlatformConfig { mutations, ..PlatformConfig::default() },
    );
    let live = platform.mutations.is_live();
    let w = platform.mutations.world_at(now);
    let net = &w.network;
    let mut x = DirectExchange::new(platform.into_handler());
    x.exchange(Request::post_form("/signup", &[("user", "probe"), ("pass", "pw")])).unwrap();
    x.exchange(Request::post_form("/login", &[("user", "probe"), ("pass", "pw")])).unwrap();
    let mut get = |url: &str| {
        let resp = x.exchange(Request::get(url).header(H_VIRTUAL_NOW, now.to_string())).unwrap();
        (resp.status, String::from_utf8(resp.body.to_vec()).expect("pages are UTF-8"))
    };
    let mut seen = Served::default();
    for school in net.schools() {
        let s = school.id;
        for url in [
            format!("/find-friends?school={s}"),
            format!("/graph-search?school={s}"),
            format!("/graph-search?school={s}&current=1"),
        ] {
            listing_matches_the_oracle(&mut get, net, live, &mut seen, "results", &url);
        }
    }
    for u in net.user_ids() {
        listing_matches_the_oracle(
            &mut get,
            net,
            live,
            &mut seen,
            "friends",
            &format!("/friends/{u}"),
        );
        for dir in ["in", "has"] {
            let url = format!("/circles/{u}?dir={dir}");
            listing_matches_the_oracle(&mut get, net, live, &mut seen, "circles", &url);
        }
        let (status, body) = get(&format!("/profile/{u}"));
        assert_eq!(status, Status::OK, "/profile/{u}");
        let gen = w.user_generation(u);
        let want = if w.tombstoned(u) {
            seen.tombstones += 1;
            oracle::tombstone_page(u, gen)
        } else {
            seen.profiles += 1;
            let view = policy.stranger_view(net, u);
            oracle::profile_page_inner(net, &view, live.then_some(gen))
        };
        assert_eq!(body, want, "/profile/{u}");
    }
    seen
}

#[test]
fn every_page_a_frozen_facebook_platform_serves_matches_the_oracle() {
    let seen = served_pages_match_the_oracle(Arc::new(FacebookPolicy::new()), MutationPlan::none());
    assert!(seen.profiles > 1_000 && seen.listings > 1_000, "{seen:?}");
    assert!(seen.next_links > 0, "no listing had a next page: {seen:?}");
    assert_eq!((seen.tombstones, seen.stamped, seen.circles), (0, 0, 0), "{seen:?}");
}

#[test]
fn every_page_a_google_plus_platform_serves_matches_the_oracle() {
    let policy = Arc::new(GooglePlusPolicy::new());
    let seen = served_pages_match_the_oracle(policy, MutationPlan::none());
    assert!(seen.circles > 1_000, "{seen:?}");
    assert!(seen.next_links > 0, "no listing had a next page: {seen:?}");
}

#[test]
fn every_page_a_live_platform_serves_matches_the_oracle() {
    let plan = MutationPlan {
        enabled: true,
        tick_ms: 100,
        horizon_ms: 2_000,
        signup_per_mille: 200,
        friend_per_mille: 300,
        defriend_per_mille: 200,
        privacy_flip_per_mille: 200,
        deactivate_per_mille: 100,
        rollover_at_ms: vec![1_000],
        ..MutationPlan::none()
    };
    let seen = served_pages_match_the_oracle(Arc::new(FacebookPolicy::new()), plan);
    assert!(seen.tombstones > 0 && seen.profiles > 1_000, "{seen:?}");
    assert_eq!(seen.stamped, seen.listings, "{seen:?}");
    assert!(seen.next_links > 0, "no listing had a next page: {seen:?}");
}

/// Each user's profile, stamped profile and tombstone, and their first
/// friend-list page through the public listing renderers, rendered
/// directly.
#[test]
fn each_users_direct_renders_match_the_oracle() {
    let net = tiny();
    let policy = FacebookPolicy::new();
    for u in net.user_ids() {
        let view = policy.stranger_view(net, u);
        let gen = u.0 % 50;
        assert_eq!(render::profile_page(net, &view), oracle::profile_page(net, &view), "{u}");
        assert_eq!(
            render::profile_page_stamped(net, &view, gen),
            oracle::profile_page_stamped(net, &view, gen),
            "{u}"
        );
        assert_eq!(render::tombstone_page(u, gen), oracle::tombstone_page(u, gen), "{u}");
        let friends: Vec<UserId> = net.friends(u).iter().copied().take(20).collect();
        let entries = named(net, &friends);
        let next = (entries.len() == 20).then(|| format!("/friends/{u}?page=1"));
        assert_eq!(
            render::listing_page("friends", &entries, next.clone()),
            oracle::listing_page("friends", &entries, next.clone()),
            "{u}"
        );
        assert_eq!(
            render::listing_page_stamped("friends", &entries, next.clone(), gen),
            oracle::listing_page_stamped("friends", &entries, next, gen),
            "{u}"
        );
    }
}

#[test]
fn every_hs1_profile_view_matches_the_oracle() {
    let net = generate(&ScenarioConfig::hs1()).network;
    let policy = FacebookPolicy::new();
    for u in net.user_ids() {
        let view = policy.stranger_view(&net, u);
        assert_eq!(render::profile_page(&net, &view), oracle::profile_page(&net, &view), "{u}");
    }
}

/// Text drawn from the characters either escaper rewrites, multi-byte
/// UTF-8, and plain letters.
fn markup_text() -> impl Strategy<Value = String> {
    const CHARS: &[char] =
        &['&', '<', '>', '"', '\'', ';', '#', ' ', 'a', 'Z', '7', 'é', 'ß', '€', '中', '😀'];
    prop::collection::vec((0..CHARS.len()).prop_map(|i| CHARS[i]), 0..12)
        .prop_map(|chars| chars.into_iter().collect())
}

/// A world whose school, city, state and user names all hold markup
/// characters, for profile views to point into.
fn markup_world() -> &'static Network {
    static NET: OnceLock<Network> = OnceLock::new();
    NET.get_or_init(|| {
        let mut net = Network::new(Date::ymd(2012, 3, 15));
        let city = net.add_city("Saint-Étienne & <Co>", "\"N'Y\" 中");
        net.add_city("Plain", "PA");
        for name in ["Smith & Wesson <High>", "O'Neil \"Prep\" 😀", "HS1"] {
            net.add_school(School {
                id: SchoolId(0),
                name: name.into(),
                city,
                kind: SchoolKind::HighSchool,
                public_enrollment_estimate: 100,
            });
        }
        for (first, last) in [("Zoë", "O'Brien"), ("<b>", "&amp;"), ("\"Al\"", "Smith > Jones")] {
            net.add_user(User {
                id: UserId(0),
                true_birth_date: Date::ymd(1996, 5, 1),
                registration: Registration {
                    registered_birth_date: Date::ymd(1990, 5, 1),
                    registration_date: Date::ymd(2010, 1, 1),
                },
                profile: ProfileContent::bare(first, last, Gender::Female),
                privacy: PrivacySettings::facebook_adult_default(),
                role: Role::OtherResident,
            });
        }
        net
    })
}

fn education() -> impl Strategy<Value = EducationEntry> {
    (0u32..3, 0usize..3, prop::option::of(1990i32..2030)).prop_map(|(school, kind, grad_year)| {
        let kind =
            [EducationKind::HighSchool, EducationKind::College, EducationKind::GraduateSchool]
                [kind];
        EducationEntry { school: SchoolId(school), kind, grad_year }
    })
}

fn public_view() -> impl Strategy<Value = PublicView> {
    let gender = (0usize..3).prop_map(|i| [Gender::Female, Gender::Male, Gender::Unspecified][i]);
    let relationship = (0usize..5).prop_map(|i| {
        [
            RelationshipStatus::Single,
            RelationshipStatus::InARelationship,
            RelationshipStatus::Engaged,
            RelationshipStatus::Married,
            RelationshipStatus::Complicated,
        ][i]
    });
    let interested_in =
        (0usize..3).prop_map(|i| [InterestedIn::Men, InterestedIn::Women, InterestedIn::Both][i]);
    let birthday = (1900i32..2100, 1u8..13, 1u8..29).prop_map(|(y, m, d)| Date::ymd(y, m, d));
    let contact = (
        prop::option::of(markup_text()),
        prop::option::of(markup_text()),
        prop::option::of(markup_text()),
    )
        .prop_map(|(email, phone, address)| ContactInfo { email, phone, address });
    (
        (any::<u64>(), markup_text(), prop::option::of(gender), any::<bool>()),
        (
            prop::collection::vec((0u32..3).prop_map(SchoolId), 0..4),
            prop::collection::vec(education(), 0..4),
            prop::option::of((0u32..2).prop_map(CityId)),
            prop::option::of((0u32..2).prop_map(CityId)),
        ),
        (
            prop::option::of(relationship),
            prop::option::of(interested_in),
            prop::option::of(birthday),
        ),
        (
            any::<bool>(),
            prop::option::of(any::<u32>()),
            prop::option::of(any::<u32>()),
            prop::collection::vec((0u64..3).prop_map(UserId), 0..4),
            any::<bool>(),
        ),
        prop::option::of(contact),
    )
        .prop_map(|(basics, places, personal, activity, contact)| {
            let (user, name, gender, has_profile_photo) = basics;
            let (networks, education, hometown, current_city) = places;
            let (relationship, interested_in, birthday) = personal;
            let (friend_list_visible, photos_shared, wall_posts, wall_posters, message_button) =
                activity;
            PublicView {
                user: UserId(user),
                name,
                gender,
                has_profile_photo,
                networks,
                education,
                hometown,
                current_city,
                relationship,
                interested_in,
                birthday,
                friend_list_visible,
                photos_shared,
                wall_posts,
                wall_posters,
                contact,
                message_button,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn arbitrary_profile_views_match_the_oracle(
        view in public_view(),
        gen in prop::option::of(any::<u64>()),
    ) {
        let net = markup_world();
        let want = match gen {
            Some(g) => oracle::profile_page_stamped(net, &view, g),
            None => oracle::profile_page(net, &view),
        };
        let got = match gen {
            Some(g) => render::profile_page_stamped(net, &view, g),
            None => render::profile_page(net, &view),
        };
        prop_assert_eq!(got, want);
    }

    #[test]
    fn listings_with_markup_names_and_next_links_match_the_oracle(
        list_id in markup_text(),
        entries in prop::collection::vec((any::<u64>().prop_map(UserId), markup_text()), 0..25),
        next in prop::option::of(markup_text()),
        gen in prop::option::of(any::<u64>()),
    ) {
        let (got, want) = match gen {
            Some(g) => (
                render::listing_page_stamped(&list_id, &entries, next.clone(), g),
                oracle::listing_page_stamped(&list_id, &entries, next, g),
            ),
            None => (
                render::listing_page(&list_id, &entries, next.clone()),
                oracle::listing_page(&list_id, &entries, next),
            ),
        };
        prop_assert_eq!(got, want);
    }
}
