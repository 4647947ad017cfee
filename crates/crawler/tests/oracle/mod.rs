//! The DOM scrapers `hsp_crawler::scrape` ran before its single-pass
//! scanner, kept verbatim as the reference the differential test
//! (`scrape_differential.rs`) holds the scanner to: parse the page into
//! an `hsp_markup` tree, then query the tree with CSS selectors.

use hsp_crawler::{ScrapedEduKind, ScrapedEducation, ScrapedProfile};
use hsp_graph::{CityId, Date, SchoolId, UserId};
use hsp_markup::{parse, select, select_first, Element};

/// Parse a profile page.
pub fn parse_profile(html: &str) -> ScrapedProfile {
    let dom = parse(html);
    let mut p = ScrapedProfile::default();
    let Some(root) = select_first(&dom, "#profile") else {
        return p;
    };
    p.uid = root.get_attr("data-uid").and_then(UserId::parse);
    p.generation = root.get_attr("data-gen").and_then(|g| g.parse().ok());
    p.tombstoned = root.get_attr("data-tombstone") == Some("1");
    if let Some(h1) = select_first(root, "h1.name") {
        p.name = h1.text_content();
    }
    p.has_photo = select_first(root, "img.profile-photo").is_some();
    p.gender = select_first(root, "span.gender").map(Element::text_content);
    for li in select(root, "ul.networks li.network") {
        if let Some(s) = li.get_attr("data-school").and_then(SchoolId::parse) {
            p.networks.push(s);
        }
    }
    for li in select(root, "ul.education li.edu") {
        let Some(school) = li.get_attr("data-school").and_then(SchoolId::parse) else {
            continue;
        };
        let kind = match li.get_attr("data-kind") {
            Some("highschool") => ScrapedEduKind::HighSchool,
            Some("college") => ScrapedEduKind::College,
            Some("gradschool") => ScrapedEduKind::GraduateSchool,
            _ => continue,
        };
        let grad_year = li.get_attr("data-year").and_then(|y| y.parse().ok());
        p.education.push(ScrapedEducation { school, kind, grad_year });
    }
    p.current_city = select_first(root, "span.current-city")
        .and_then(|e| e.get_attr("data-city"))
        .and_then(CityId::parse);
    p.hometown = select_first(root, "span.hometown")
        .and_then(|e| e.get_attr("data-city"))
        .and_then(CityId::parse);
    p.relationship = select_first(root, "span.relationship").is_some();
    p.interested_in = select_first(root, "span.interested-in").is_some();
    p.birthday = select_first(root, "span.birthday")
        .and_then(|e| e.get_attr("data-date"))
        .and_then(parse_date);
    p.photos_shared = select_first(root, "span.photos-count")
        .and_then(|e| e.get_attr("data-count"))
        .and_then(|c| c.parse().ok());
    p.wall_posts = select_first(root, "span.wall-count")
        .and_then(|e| e.get_attr("data-count"))
        .and_then(|c| c.parse().ok());
    for li in select(root, "ul.wall li.wall-post") {
        if let Some(author) = li.get_attr("data-author").and_then(UserId::parse) {
            p.wall_posters.push(author);
        }
    }
    p.has_contact_info = select_first(root, "div.contact").is_some();
    p.friend_list_visible = select_first(root, "a.friends-link").is_some();
    p.message_button = select_first(root, "a.message-button").is_some();
    p
}

/// Parse a listing page (search results or a friend-list page): the
/// linked user ids, the next-page URL, and the live-world `data-gen`
/// staleness stamp on the list root (`None` on a frozen platform).
pub fn parse_listing_stamped(html: &str) -> (Vec<UserId>, Option<String>, Option<u64>) {
    let dom = parse(html);
    let ids = select(&dom, "a.profile-link")
        .into_iter()
        .filter_map(|a| {
            a.get_attr("href").and_then(|h| h.strip_prefix("/profile/")).and_then(UserId::parse)
        })
        .collect();
    let next =
        select_first(&dom, "#next-page").and_then(|a| a.get_attr("href")).map(str::to_string);
    let gen = select_first(&dom, "ul")
        .and_then(|ul| ul.get_attr("data-gen"))
        .and_then(|g| g.parse().ok());
    (ids, next, gen)
}

fn parse_date(s: &str) -> Option<Date> {
    let mut parts = s.split('-');
    let y = parts.next()?.parse().ok()?;
    let m = parts.next()?.parse().ok()?;
    let d = parts.next()?.parse().ok()?;
    Date::new(y, m, d).ok()
}
