//! The DOM renderer `hsp_platform::render` ran before its single-pass
//! writer, kept verbatim as the reference the differential test
//! (`render_differential.rs`) holds the writer to: build each page as an
//! `hsp_markup` element tree, then serialise the tree.

use hsp_graph::{EducationKind, Network, UserId};
use hsp_markup::{el, text_el, Element};
use hsp_policy::PublicView;

/// Wrap body content in a page skeleton.
pub fn page(title: &str, body_children: Vec<Element>) -> String {
    let mut body = el("body");
    body.children.extend(body_children.into_iter().map(hsp_markup::Node::Element));
    let doc = el("html").child(el("head").child(text_el("title", title))).child(body);
    // One exact-size allocation for the whole page instead of the
    // doubling growth of `format!` + a cold render buffer.
    let mut out = String::with_capacity("<!DOCTYPE html>".len() + doc.rendered_len_hint());
    out.push_str("<!DOCTYPE html>");
    doc.render_into(&mut out);
    out
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
    let mut root = el("div").id("profile").attr("data-uid", view.user.to_string());
    if let Some(g) = gen {
        root = root.attr("data-gen", g.to_string());
    }
    root = root.child(text_el("h1", view.name.clone()).class("name"));
    if view.has_profile_photo {
        root = root
            .child(el("img").class("profile-photo").attr("src", format!("/photo/{}", view.user)));
    }
    if let Some(g) = view.gender {
        root = root.child(text_el("span", g.to_string()).class("gender"));
    }
    if !view.networks.is_empty() {
        let mut ul = el("ul").class("networks");
        for n in &view.networks {
            ul = ul.child(
                text_el("li", net.school(*n).name)
                    .class("network")
                    .attr("data-school", n.to_string()),
            );
        }
        root = root.child(ul);
    }
    if !view.education.is_empty() {
        let mut ul = el("ul").class("education");
        for e in &view.education {
            let kind = match e.kind {
                EducationKind::HighSchool => "highschool",
                EducationKind::College => "college",
                EducationKind::GraduateSchool => "gradschool",
            };
            let label = match e.grad_year {
                Some(y) => format!("{}, Class of {}", net.school(e.school).name, y),
                None => net.school(e.school).name.to_string(),
            };
            let mut li = text_el("li", label)
                .class("edu")
                .attr("data-kind", kind)
                .attr("data-school", e.school.to_string());
            if let Some(y) = e.grad_year {
                li = li.attr("data-year", y.to_string());
            }
            ul = ul.child(li);
        }
        root = root.child(ul);
    }
    if let Some(c) = view.current_city {
        let city = net.city(c);
        root = root.child(
            text_el("span", format!("{}, {}", city.name, city.state))
                .class("current-city")
                .attr("data-city", c.to_string()),
        );
    }
    if let Some(c) = view.hometown {
        let city = net.city(c);
        root = root.child(
            text_el("span", format!("{}, {}", city.name, city.state))
                .class("hometown")
                .attr("data-city", c.to_string()),
        );
    }
    if let Some(r) = view.relationship {
        root = root.child(text_el("span", format!("{r:?}")).class("relationship"));
    }
    if let Some(i) = view.interested_in {
        root = root.child(text_el("span", format!("{i:?}")).class("interested-in"));
    }
    if let Some(b) = view.birthday {
        root = root.child(
            text_el("span", b.to_string()).class("birthday").attr("data-date", b.to_string()),
        );
    }
    if let Some(n) = view.photos_shared {
        root = root.child(
            text_el("span", format!("{n} photos"))
                .class("photos-count")
                .attr("data-count", n.to_string()),
        );
    }
    if let Some(n) = view.wall_posts {
        root = root.child(
            text_el("span", format!("{n} wall posts"))
                .class("wall-count")
                .attr("data-count", n.to_string()),
        );
    }
    if !view.wall_posters.is_empty() {
        let mut ul = el("ul").class("wall");
        for &author in &view.wall_posters {
            ul = ul.child(
                text_el("li", net.user(author).profile.full_name())
                    .class("wall-post")
                    .attr("data-author", author.to_string()),
            );
        }
        root = root.child(ul);
    }
    if let Some(contact) = &view.contact {
        let mut div = el("div").class("contact");
        if let Some(e) = &contact.email {
            div = div.child(text_el("span", e.clone()).class("email"));
        }
        if let Some(p) = &contact.phone {
            div = div.child(text_el("span", p.clone()).class("phone"));
        }
        if let Some(a) = &contact.address {
            div = div.child(text_el("span", a.clone()).class("address"));
        }
        root = root.child(div);
    }
    if view.friend_list_visible {
        root = root.child(
            text_el("a", "Friends")
                .class("friends-link")
                .attr("href", format!("/friends/{}", view.user)),
        );
    }
    if view.message_button {
        root = root.child(
            text_el("a", "Message")
                .class("message-button")
                .attr("href", format!("/message/{}", view.user)),
        );
    }
    page(&view.name, vec![root])
}

/// One page of search results (or friends): a list of profile links
/// plus an optional next-page link.
pub fn listing_page(
    list_id: &str,
    entries: &[(UserId, String)],
    next_url: Option<String>,
) -> String {
    listing_page_inner(list_id, entries, next_url, None)
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
    listing_page_inner(list_id, entries, next_url, Some(gen))
}

/// [`listing_page`] when `gen` is `None`, else [`listing_page_stamped`].
pub(crate) fn listing_page_inner(
    list_id: &str,
    entries: &[(UserId, String)],
    next_url: Option<String>,
    gen: Option<u64>,
) -> String {
    let mut ul = el("ul").id(list_id);
    if let Some(g) = gen {
        ul = ul.attr("data-gen", g.to_string());
    }
    ul.children.reserve(entries.len());
    for (uid, name) in entries {
        ul = ul.child(
            el("li").class("entry").child(
                text_el("a", name.clone())
                    .class("profile-link")
                    .attr("href", format!("/profile/{uid}")),
            ),
        );
    }
    let mut children = vec![ul];
    if let Some(next) = next_url {
        children.push(text_el("a", "More").id("next-page").attr("href", next));
    }
    page(list_id, children)
}

/// A deactivated or graduated-away account's profile page: the name
/// slot still renders (so parsers don't crash) but the body carries a
/// `data-tombstone` marker and nothing else. Served with 200 OK — a
/// tombstone is an answer, not an error.
pub fn tombstone_page(uid: UserId, gen: u64) -> String {
    let root = el("div")
        .id("profile")
        .attr("data-uid", uid.to_string())
        .attr("data-gen", gen.to_string())
        .attr("data-tombstone", "1")
        .child(text_el("h1", "Account unavailable").class("name"));
    page("Account unavailable", vec![root])
}
