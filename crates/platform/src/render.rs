//! HTML rendering of platform pages.
//!
//! Class/id names and `data-` attributes are the stable scraping
//! contract with `hsp-crawler` (which, like the paper's parser, extracts
//! fields from the HTML source).
//!
//! Each page is written straight into one `String`: the doctype, then
//! every tag with its attributes in a fixed order, text escaped with
//! [`escape_text_into`] and attribute values with [`escape_attr_into`].
//! Ids, counts, dates and enum names go in unescaped, since none of them
//! can hold a character either escaper rewrites. The bytes are exactly
//! those of the same page built as an `hsp_markup` tree and serialised:
//! that renderer is kept as the test oracle in `tests/oracle/`, and
//! `tests/render_differential.rs` holds the two to identical output.

use hsp_graph::{EducationKind, Network, UserId};
use hsp_markup::escape::{escape_attr_into, escape_text_into};
use hsp_policy::PublicView;
use std::fmt::Write;

/// Start a page: the doctype, a head holding `title`, and an open
/// `<body>` that [`close_page`] ends.
fn open_page(title: &str, capacity: usize) -> String {
    let mut out = String::with_capacity(capacity);
    out.push_str("<!DOCTYPE html><html><head><title>");
    escape_text_into(title, &mut out);
    out.push_str("</title></head><body>");
    out
}

fn close_page(mut out: String) -> String {
    out.push_str("</body></html>");
    out
}

/// Escape `pieces` back to back as one text run. Escaping is per
/// character, so this equals escaping their concatenation.
fn text<'a>(out: &mut String, pieces: impl IntoIterator<Item = &'a str>) {
    for piece in pieces {
        escape_text_into(piece, out);
    }
}

/// `u`'s display name as the pieces `ProfileContent::full_name` joins,
/// written from the two interned symbols without building the `String`.
fn full_name(net: &Network, u: UserId) -> [&'static str; 3] {
    let p = &net.user(u).profile;
    [p.first_name.as_str(), " ", p.last_name.as_str()]
}

/// Render a stranger's view of a profile page.
pub fn profile_page(net: &Network, view: &PublicView) -> String {
    profile_page_inner(net, view, None)
}

/// Live-world variant: identical page plus a `data-gen` staleness stamp
/// (the user's mutation-touch count) on the `#profile` root. The crawler
/// cross-checks it against the friend-list stamp to detect pages that
/// changed between the two fetches.
pub fn profile_page_stamped(net: &Network, view: &PublicView, gen: u64) -> String {
    profile_page_inner(net, view, Some(gen))
}

/// [`profile_page`] when `gen` is `None`, else [`profile_page_stamped`].
pub(crate) fn profile_page_inner(net: &Network, view: &PublicView, gen: Option<u64>) -> String {
    let uid = view.user;
    let rows = view.networks.len() + view.education.len() + view.wall_posters.len();
    let mut out = open_page(&view.name, 1024 + 128 * rows);
    let _ = write!(out, "<div id=\"profile\" data-uid=\"{uid}\"");
    if let Some(g) = gen {
        let _ = write!(out, " data-gen=\"{g}\"");
    }
    out.push_str("><h1 class=\"name\">");
    escape_text_into(&view.name, &mut out);
    out.push_str("</h1>");
    if view.has_profile_photo {
        let _ = write!(out, "<img class=\"profile-photo\" src=\"/photo/{uid}\">");
    }
    if let Some(g) = view.gender {
        let _ = write!(out, "<span class=\"gender\">{g}</span>");
    }
    if !view.networks.is_empty() {
        out.push_str("<ul class=\"networks\">");
        for &n in &view.networks {
            let _ = write!(out, "<li class=\"network\" data-school=\"{n}\">");
            escape_text_into(net.school(n).name.as_str(), &mut out);
            out.push_str("</li>");
        }
        out.push_str("</ul>");
    }
    if !view.education.is_empty() {
        out.push_str("<ul class=\"education\">");
        for e in &view.education {
            let kind = match e.kind {
                EducationKind::HighSchool => "highschool",
                EducationKind::College => "college",
                EducationKind::GraduateSchool => "gradschool",
            };
            let school = e.school;
            let _ = write!(out, "<li class=\"edu\" data-kind=\"{kind}\" data-school=\"{school}\"");
            if let Some(y) = e.grad_year {
                let _ = write!(out, " data-year=\"{y}\"");
            }
            out.push('>');
            escape_text_into(net.school(school).name.as_str(), &mut out);
            if let Some(y) = e.grad_year {
                let _ = write!(out, ", Class of {y}");
            }
            out.push_str("</li>");
        }
        out.push_str("</ul>");
    }
    for (class, city) in [("current-city", view.current_city), ("hometown", view.hometown)] {
        if let Some(c) = city {
            let _ = write!(out, "<span class=\"{class}\" data-city=\"{c}\">");
            let city = net.city(c);
            text(&mut out, [city.name.as_str(), ", ", city.state.as_str()]);
            out.push_str("</span>");
        }
    }
    if let Some(r) = view.relationship {
        let _ = write!(out, "<span class=\"relationship\">{r:?}</span>");
    }
    if let Some(i) = view.interested_in {
        let _ = write!(out, "<span class=\"interested-in\">{i:?}</span>");
    }
    if let Some(b) = view.birthday {
        let _ = write!(out, "<span class=\"birthday\" data-date=\"{b}\">{b}</span>");
    }
    if let Some(n) = view.photos_shared {
        let _ = write!(out, "<span class=\"photos-count\" data-count=\"{n}\">{n} photos</span>");
    }
    if let Some(n) = view.wall_posts {
        let _ = write!(out, "<span class=\"wall-count\" data-count=\"{n}\">{n} wall posts</span>");
    }
    if !view.wall_posters.is_empty() {
        out.push_str("<ul class=\"wall\">");
        for &author in &view.wall_posters {
            let _ = write!(out, "<li class=\"wall-post\" data-author=\"{author}\">");
            text(&mut out, full_name(net, author));
            out.push_str("</li>");
        }
        out.push_str("</ul>");
    }
    if let Some(contact) = &view.contact {
        out.push_str("<div class=\"contact\">");
        let fields =
            [("email", &contact.email), ("phone", &contact.phone), ("address", &contact.address)];
        for (class, value) in fields {
            if let Some(v) = value {
                let _ = write!(out, "<span class=\"{class}\">");
                escape_text_into(v, &mut out);
                out.push_str("</span>");
            }
        }
        out.push_str("</div>");
    }
    if view.friend_list_visible {
        let _ = write!(out, "<a class=\"friends-link\" href=\"/friends/{uid}\">Friends</a>");
    }
    if view.message_button {
        let _ = write!(out, "<a class=\"message-button\" href=\"/message/{uid}\">Message</a>");
    }
    out.push_str("</div>");
    close_page(out)
}

/// One page of search results (or friends): a list of profile links
/// plus an optional next-page link.
pub fn listing_page(
    list_id: &str,
    entries: &[(UserId, String)],
    next_url: Option<String>,
) -> String {
    let entries = entries.iter().map(|(uid, name)| (*uid, [name.as_str()]));
    listing(list_id, entries, next_url.as_deref(), None)
}

/// Live-world variant of [`listing_page`] with a `data-gen` stamp on
/// the list root (the listing owner's mutation-touch count for friend
/// lists, the world generation for search results).
pub fn listing_page_stamped(
    list_id: &str,
    entries: &[(UserId, String)],
    next_url: Option<String>,
    gen: u64,
) -> String {
    let entries = entries.iter().map(|(uid, name)| (*uid, [name.as_str()]));
    listing(list_id, entries, next_url.as_deref(), Some(gen))
}

/// The listing page a handler serves: `ids` linked under their names,
/// each read from `net`. Stamped when `gen` is `Some`.
pub(crate) fn listing_page_inner(
    list_id: &str,
    ids: &[UserId],
    net: &Network,
    next_url: Option<String>,
    gen: Option<u64>,
) -> String {
    let entries = ids.iter().map(|&uid| (uid, full_name(net, uid)));
    listing(list_id, entries, next_url.as_deref(), gen)
}

/// Write a listing page whose entries give each name as pieces.
fn listing<'a, N: IntoIterator<Item = &'a str>>(
    list_id: &str,
    entries: impl ExactSizeIterator<Item = (UserId, N)>,
    next_url: Option<&str>,
    gen: Option<u64>,
) -> String {
    let mut out = open_page(list_id, 256 + 2 * list_id.len() + 96 * entries.len());
    out.push_str("<ul id=\"");
    escape_attr_into(list_id, &mut out);
    out.push('"');
    if let Some(g) = gen {
        let _ = write!(out, " data-gen=\"{g}\"");
    }
    out.push('>');
    for (uid, name) in entries {
        let _ =
            write!(out, "<li class=\"entry\"><a class=\"profile-link\" href=\"/profile/{uid}\">");
        text(&mut out, name);
        out.push_str("</a></li>");
    }
    out.push_str("</ul>");
    if let Some(next) = next_url {
        out.push_str("<a id=\"next-page\" href=\"");
        escape_attr_into(next, &mut out);
        out.push_str("\">More</a>");
    }
    close_page(out)
}

/// A deactivated or graduated-away account's profile page: the name
/// slot still renders (so parsers don't crash) but the body carries a
/// `data-tombstone` marker and nothing else. Served with 200 OK — a
/// tombstone is an answer, not an error.
pub fn tombstone_page(uid: UserId, gen: u64) -> String {
    let mut out = open_page("Account unavailable", 256);
    let _ = write!(
        out,
        "<div id=\"profile\" data-uid=\"{uid}\" data-gen=\"{gen}\" data-tombstone=\"1\">\
         <h1 class=\"name\">Account unavailable</h1></div>"
    );
    close_page(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsp_markup::{parse, select, select_first};

    #[test]
    fn listing_page_structure() {
        let html = listing_page(
            "results",
            &[(UserId(1), "A B".into()), (UserId(2), "C D".into())],
            Some("/find-friends?school=s0&page=1".into()),
        );
        let dom = parse(&html);
        assert_eq!(select(&dom, "#results a.profile-link").len(), 2);
        let next = select_first(&dom, "#next-page").unwrap();
        assert_eq!(next.get_attr("href"), Some("/find-friends?school=s0&page=1"));
    }

    #[test]
    fn listing_page_without_next() {
        let html = listing_page("results", &[], None);
        let dom = parse(&html);
        assert!(select_first(&dom, "#next-page").is_none());
    }

    #[test]
    fn stamped_listing_carries_generation() {
        let entries = [(UserId(1), "A B".to_string())];
        let html = listing_page_stamped("friends", &entries, None, 7);
        let dom = parse(&html);
        let ul = select_first(&dom, "#friends").unwrap();
        assert_eq!(ul.get_attr("data-gen"), Some("7"));
        // The unstamped renderer must not leak the attribute.
        let plain = listing_page("friends", &entries, None);
        assert!(!plain.contains("data-gen"));
    }

    #[test]
    fn tombstone_page_structure() {
        let html = tombstone_page(UserId(5), 3);
        let dom = parse(&html);
        let root = select_first(&dom, "#profile").unwrap();
        assert_eq!(root.get_attr("data-tombstone"), Some("1"));
        assert_eq!(root.get_attr("data-uid"), Some("u5"));
        assert_eq!(root.get_attr("data-gen"), Some("3"));
        assert!(select_first(&dom, "h1.name").is_some());
        assert!(select(&dom, ".edu").is_empty());
        assert!(select(&dom, ".friends-link").is_empty());
    }
}
