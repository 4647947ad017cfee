//! HTML scrapers: turn platform pages back into structured data.
//!
//! Mirrors the paper's §3.2 pipeline ("our parser then extracted
//! relevant data from the HTML source code"). Parsing is defensive: a
//! page that lacks a field simply yields `None` — the attacker can only
//! work with what is rendered.
//!
//! Each scraper reads its page in one forward scan and builds no tree.
//! The lexer cuts the page into tags and text exactly where
//! `hsp_markup::parser` does, so the scan meets the elements the DOM
//! parser would build, in document order; [`parse_profile`] keeps a
//! stack of open elements, with the parser's close-tag recovery, to
//! know which element sits inside which. The DOM scrapers this
//! replaces are kept under `tests/oracle/` as the reference a
//! differential test holds both scrapers to.

use hsp_graph::{CityId, Date, SchoolId, UserId};
use hsp_markup::dom::VOID_ELEMENTS;
use hsp_markup::unescape;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Education entry as scraped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrapedEducation {
    pub school: SchoolId,
    pub kind: ScrapedEduKind,
    pub grad_year: Option<i32>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScrapedEduKind {
    HighSchool,
    College,
    GraduateSchool,
}

/// Everything extractable from one public profile page.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ScrapedProfile {
    pub uid: Option<UserId>,
    pub name: String,
    pub gender: Option<String>,
    pub has_photo: bool,
    pub networks: Vec<SchoolId>,
    pub education: Vec<ScrapedEducation>,
    pub current_city: Option<CityId>,
    pub hometown: Option<CityId>,
    pub relationship: bool,
    pub interested_in: bool,
    pub birthday: Option<Date>,
    pub photos_shared: Option<u32>,
    pub wall_posts: Option<u32>,
    /// Authors of visible wall posts (interaction signal).
    pub wall_posters: Vec<UserId>,
    pub has_contact_info: bool,
    pub friend_list_visible: bool,
    pub message_button: bool,
    /// Live-world staleness stamp (`data-gen`): the user's mutation-touch
    /// count when the page was rendered. `None` on a frozen platform.
    #[serde(default)]
    pub generation: Option<u64>,
    /// `data-tombstone` marker: the account was deactivated or graduated
    /// away mid-crawl. The page is a 200 OK answer, not an error.
    #[serde(default)]
    pub tombstoned: bool,
}

impl ScrapedProfile {
    /// The paper's "minimal information" test applied to a scraped page
    /// (§3.1): nothing beyond name/photo/gender/networks, and no Message
    /// button. On Facebook this implies a registered minor or a fully
    /// locked-down adult.
    pub fn is_minimal(&self) -> bool {
        self.education.is_empty()
            && self.current_city.is_none()
            && self.hometown.is_none()
            && !self.relationship
            && !self.interested_in
            && self.birthday.is_none()
            && self.photos_shared.is_none()
            && self.wall_posts.is_none()
            && !self.has_contact_info
            && !self.friend_list_visible
            && !self.message_button
    }

    /// The high-school entry, if listed.
    pub fn listed_high_school(&self) -> Option<ScrapedEducation> {
        self.education.iter().copied().find(|e| e.kind == ScrapedEduKind::HighSchool)
    }

    /// §4.1 step 2: does this profile claim *current* attendance at
    /// `school`, given the current senior class year?
    pub fn claims_current_student(&self, school: SchoolId, senior_class_year: i32) -> bool {
        self.education.iter().any(|e| {
            e.kind == ScrapedEduKind::HighSchool
                && e.school == school
                && e.grad_year.is_some_and(|g| g >= senior_class_year)
        })
    }

    /// Does the profile list a graduate school (filter rule 1, §4.4)?
    pub fn lists_graduate_school(&self) -> bool {
        self.education.iter().any(|e| e.kind == ScrapedEduKind::GraduateSchool)
    }
}

/// Parse a profile page.
///
/// The root is the first element whose `id` is `profile`; every field
/// but the three stamps on the root itself is read from the root's
/// descendants, so the scan ends when the root closes.
pub fn parse_profile(html: &str) -> ScrapedProfile {
    let mut p = ScrapedProfile::default();
    let mut lexer = Lexer::new(html);
    let root_open = loop {
        match lexer.next_token() {
            None => return p,
            Some(Token::Start { tag, childless })
                if lexer.attrs.get(Attr::Id).as_deref() == Some("profile") =>
            {
                let attrs = &lexer.attrs;
                p.uid = attrs.get(Attr::DataUid).as_deref().and_then(UserId::parse);
                p.generation = attrs.get(Attr::DataGen).and_then(|g| g.parse().ok());
                p.tombstoned = attrs.get(Attr::DataTombstone).as_deref() == Some("1");
                break takes_children(tag, childless);
            }
            Some(_) => {}
        }
    };
    if !root_open {
        return p;
    }
    // The root's open descendants, innermost last, each with the scope
    // bits it and its open ancestors below the root pass down.
    let mut stack: Vec<(&str, u8)> = Vec::with_capacity(8);
    let mut seen = 0u8;
    while let Some(token) = lexer.next_token() {
        let scope = stack.last().map_or(0, |&(_, s)| s);
        match token {
            Token::Start { tag, childless } => {
                let own = read_descendant(&mut p, &mut seen, tag, &lexer.attrs, scope);
                if takes_children(tag, childless) {
                    stack.push((tag, scope | own));
                }
            }
            // The parser's recovery: a close tag closes the nearest open
            // element of its name and everything opened inside it. One
            // that names no open descendant closes the root.
            Token::End(tag) => {
                let Some(i) = stack.iter().rposition(|(t, _)| t.eq_ignore_ascii_case(tag)) else {
                    break;
                };
                stack.truncate(i);
            }
            Token::Text(raw) if scope & (IN_NAME | IN_GENDER) != 0 => {
                // The DOM keeps a text run only if it is not blank.
                let text = decode(raw);
                if text.trim().is_empty() {
                    continue;
                }
                if scope & IN_NAME != 0 {
                    p.name.push_str(&text);
                }
                if scope & IN_GENDER != 0 {
                    p.gender.get_or_insert_default().push_str(&text);
                }
            }
            Token::Text(_) => {}
        }
    }
    p
}

// Scope bits: the descendant is inside `ul.networks`, `ul.education` or
// `ul.wall`, or inside the first `h1.name` or `span.gender`.
const IN_NETWORKS: u8 = 1;
const IN_EDUCATION: u8 = 1 << 1;
const IN_WALL: u8 = 1 << 2;
const IN_NAME: u8 = 1 << 3;
const IN_GENDER: u8 = 1 << 4;

// Fields read from the first matching descendant only.
const FIRST_NAME: u8 = 1;
const FIRST_GENDER: u8 = 1 << 1;
const FIRST_CITY: u8 = 1 << 2;
const FIRST_HOMETOWN: u8 = 1 << 3;
const FIRST_BIRTHDAY: u8 = 1 << 4;
const FIRST_PHOTOS: u8 = 1 << 5;
const FIRST_WALL_COUNT: u8 = 1 << 6;

/// Fold one start tag below the profile root into `p`. `scope` holds the
/// bits of its open ancestors below the root; returns the bits the
/// element adds for its own descendants.
fn read_descendant(
    p: &mut ScrapedProfile,
    seen: &mut u8,
    tag: &str,
    attrs: &Attrs<'_>,
    scope: u8,
) -> u8 {
    let class = attrs.get(Attr::Class);
    let has = |name: &str| {
        class.as_deref().is_some_and(|c| c.split_ascii_whitespace().any(|part| part == name))
    };
    let mut first = |bit: u8, name: &str| {
        let hit = *seen & bit == 0 && has(name);
        if hit {
            *seen |= bit;
        }
        hit
    };
    let mut own = 0;
    if tag.eq_ignore_ascii_case("h1") {
        if first(FIRST_NAME, "name") {
            own |= IN_NAME;
        }
    } else if tag.eq_ignore_ascii_case("img") {
        p.has_photo |= has("profile-photo");
    } else if tag.eq_ignore_ascii_case("span") {
        if first(FIRST_GENDER, "gender") {
            p.gender = Some(String::new());
            own |= IN_GENDER;
        }
        if first(FIRST_CITY, "current-city") {
            p.current_city = attrs.get(Attr::DataCity).as_deref().and_then(CityId::parse);
        }
        if first(FIRST_HOMETOWN, "hometown") {
            p.hometown = attrs.get(Attr::DataCity).as_deref().and_then(CityId::parse);
        }
        p.relationship |= has("relationship");
        p.interested_in |= has("interested-in");
        if first(FIRST_BIRTHDAY, "birthday") {
            p.birthday = attrs.get(Attr::DataDate).as_deref().and_then(parse_date);
        }
        if first(FIRST_PHOTOS, "photos-count") {
            p.photos_shared = attrs.get(Attr::DataCount).and_then(|c| c.parse().ok());
        }
        if first(FIRST_WALL_COUNT, "wall-count") {
            p.wall_posts = attrs.get(Attr::DataCount).and_then(|c| c.parse().ok());
        }
    } else if tag.eq_ignore_ascii_case("ul") {
        for (name, bit) in
            [("networks", IN_NETWORKS), ("education", IN_EDUCATION), ("wall", IN_WALL)]
        {
            if has(name) {
                own |= bit;
            }
        }
    } else if tag.eq_ignore_ascii_case("li") {
        if scope & IN_NETWORKS != 0 && has("network") {
            p.networks.extend(attrs.get(Attr::DataSchool).as_deref().and_then(SchoolId::parse));
        }
        if scope & IN_EDUCATION != 0 && has("edu") {
            p.education.extend(education(attrs));
        }
        if scope & IN_WALL != 0 && has("wall-post") {
            p.wall_posters.extend(attrs.get(Attr::DataAuthor).as_deref().and_then(UserId::parse));
        }
    } else if tag.eq_ignore_ascii_case("div") {
        p.has_contact_info |= has("contact");
    } else if tag.eq_ignore_ascii_case("a") {
        p.friend_list_visible |= has("friends-link");
        p.message_button |= has("message-button");
    }
    own
}

/// An `li.edu` entry; `None` without a school id or a known kind.
fn education(attrs: &Attrs<'_>) -> Option<ScrapedEducation> {
    let school = attrs.get(Attr::DataSchool).as_deref().and_then(SchoolId::parse)?;
    let kind = match attrs.get(Attr::DataKind).as_deref() {
        Some("highschool") => ScrapedEduKind::HighSchool,
        Some("college") => ScrapedEduKind::College,
        Some("gradschool") => ScrapedEduKind::GraduateSchool,
        _ => return None,
    };
    let grad_year = attrs.get(Attr::DataYear).and_then(|y| y.parse().ok());
    Some(ScrapedEducation { school, kind, grad_year })
}

/// Parse a listing page (search results or a friend-list page): the
/// linked user ids plus the next-page URL, if any.
pub fn parse_listing(html: &str) -> (Vec<UserId>, Option<String>) {
    let (ids, next, _) = parse_listing_stamped(html);
    (ids, next)
}

/// Like [`parse_listing`], also returning the live-world `data-gen`
/// staleness stamp on the list root (`None` on a frozen platform). The
/// crawler compares stamps across a pagination run — and against the
/// owner's profile stamp — to detect a list that mutated mid-read.
///
/// Ids come from every `a.profile-link`, the next page from the first
/// element with `id="next-page"`, the stamp from the first `ul`.
pub fn parse_listing_stamped(html: &str) -> (Vec<UserId>, Option<String>, Option<u64>) {
    let mut ids = Vec::new();
    let (mut next, mut gen) = (None, None);
    let (mut seen_next, mut seen_ul) = (false, false);
    let mut lexer = Lexer::new(html);
    while let Some(token) = lexer.next_token() {
        let Token::Start { tag, .. } = token else {
            continue;
        };
        let attrs = &lexer.attrs;
        if tag.eq_ignore_ascii_case("a") && attrs.has_class("profile-link") {
            let href = attrs.get(Attr::Href);
            ids.extend(
                href.as_deref().and_then(|h| h.strip_prefix("/profile/")).and_then(UserId::parse),
            );
        }
        if !seen_next && attrs.get(Attr::Id).as_deref() == Some("next-page") {
            seen_next = true;
            next = attrs.get(Attr::Href).map(Cow::into_owned);
        }
        if !seen_ul && tag.eq_ignore_ascii_case("ul") {
            seen_ul = true;
            gen = attrs.get(Attr::DataGen).and_then(|g| g.parse().ok());
        }
    }
    (ids, next, gen)
}

fn parse_date(s: &str) -> Option<Date> {
    let mut parts = s.split('-');
    let y = parts.next()?.parse().ok()?;
    let m = parts.next()?.parse().ok()?;
    let d = parts.next()?.parse().ok()?;
    Date::new(y, m, d).ok()
}

/// The attributes the scrapers read. Every other attribute is lexed and
/// dropped. `DataAuthor` stays last: it sizes [`Attrs`].
#[derive(Clone, Copy)]
enum Attr {
    Id,
    Class,
    Href,
    DataUid,
    DataGen,
    DataTombstone,
    DataSchool,
    DataKind,
    DataYear,
    DataCity,
    DataDate,
    DataCount,
    DataAuthor,
}

impl Attr {
    /// The attribute a lowercase name denotes, if the scrapers read it.
    fn named(lower: &[u8]) -> Option<Attr> {
        Some(match lower {
            b"id" => Attr::Id,
            b"class" => Attr::Class,
            b"href" => Attr::Href,
            b"data-uid" => Attr::DataUid,
            b"data-gen" => Attr::DataGen,
            b"data-tombstone" => Attr::DataTombstone,
            b"data-school" => Attr::DataSchool,
            b"data-kind" => Attr::DataKind,
            b"data-year" => Attr::DataYear,
            b"data-city" => Attr::DataCity,
            b"data-date" => Attr::DataDate,
            b"data-count" => Attr::DataCount,
            b"data-author" => Attr::DataAuthor,
            _ => return None,
        })
    }
}

/// The longest name [`Attr::named`] knows.
const MAX_ATTR_NAME: usize = "data-tombstone".len();

/// A start tag's [`Attr`] values, borrowed from the page and still
/// entity-encoded.
#[derive(Default)]
struct Attrs<'a>([Option<&'a str>; Attr::DataAuthor as usize + 1]);

impl<'a> Attrs<'a> {
    /// Record one attribute as the DOM parser's `set_attr` does: names
    /// compare ASCII-case-insensitively and the last duplicate wins.
    fn set(&mut self, name: &str, raw: &'a str) {
        let attr = Attr::named(name.as_bytes()).or_else(|| {
            let mut buf = [0u8; MAX_ATTR_NAME];
            let lower = buf.get_mut(..name.len())?;
            lower.copy_from_slice(name.as_bytes());
            lower.make_ascii_lowercase();
            Attr::named(lower)
        });
        if let Some(attr) = attr {
            self.0[attr as usize] = Some(raw);
        }
    }

    /// The decoded value, if the tag has the attribute.
    fn get(&self, attr: Attr) -> Option<Cow<'a, str>> {
        self.0[attr as usize].map(decode)
    }

    fn has_class(&self, name: &str) -> bool {
        self.get(Attr::Class).is_some_and(|c| c.split_ascii_whitespace().any(|part| part == name))
    }
}

/// Decode entities, copying only a value that holds one.
fn decode(raw: &str) -> Cow<'_, str> {
    if raw.as_bytes().contains(&b'&') {
        Cow::Owned(unescape(raw))
    } else {
        Cow::Borrowed(raw)
    }
}

/// One token of a page, delimited exactly as `hsp_markup::parser`
/// delimits it. Comments and `<!…>` declarations yield nothing.
enum Token<'a> {
    /// A start tag; its attributes are in [`Lexer::attrs`] until the next
    /// one. `childless` marks a `/>` tag or one the page ends inside.
    Start { tag: &'a str, childless: bool },
    /// A well-formed close tag, `</tag …>`.
    End(&'a str),
    /// A text run, still entity-encoded.
    Text(&'a str),
}

/// Whether the DOM parser would give an element children: not when its
/// tag is `childless` or names a void element.
fn takes_children(tag: &str, childless: bool) -> bool {
    !childless && !VOID_ELEMENTS.iter().any(|v| v.eq_ignore_ascii_case(tag))
}

/// The scrapers' tokenizer. It walks bytes: every delimiter is ASCII,
/// and no byte of a multi-byte UTF-8 character is, so each slice it
/// cuts falls on a character boundary.
struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    /// The attributes of the latest start tag.
    attrs: Attrs<'a>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0, attrs: Attrs::default() }
    }

    /// The next token, or `None` at the end of the page.
    fn next_token(&mut self) -> Option<Token<'a>> {
        loop {
            match &self.src.as_bytes()[self.pos..] {
                [] => return None,
                [b'<', b'/', ..] => {
                    self.pos += 2;
                    let tag = self.take_name();
                    if !tag.is_empty() {
                        self.skip_past(b'>');
                        return Some(Token::End(tag));
                    }
                    // Not a close tag after all: the `</` is dropped.
                }
                [b'<', b'!', b'-', b'-', ..] => {
                    let body = self.pos + 4;
                    self.pos =
                        self.src[body..].find("-->").map_or(self.src.len(), |i| body + i + 3);
                }
                [b'<', b'!', ..] => self.skip_past(b'>'),
                [b'<', b, ..] if b.is_ascii_alphabetic() => return Some(self.start_tag()),
                _ => return Some(self.text()),
            }
        }
    }

    /// Consume the longest run of bytes that satisfy `keep`.
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let rest = &self.src.as_bytes()[start..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
        &self.src[start..self.pos]
    }

    fn take_name(&mut self) -> &'a str {
        self.take_while(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b':'))
    }

    fn skip_whitespace(&mut self) {
        self.take_while(|b| b.is_ascii_whitespace());
    }

    /// Consume through the next `stop`, or to the end.
    fn skip_past(&mut self, stop: u8) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| b == stop).map_or(rest.len(), |i| i + 1);
    }

    /// A start tag; `pos` is on its `<`.
    fn start_tag(&mut self) -> Token<'a> {
        self.pos += 1;
        let tag = self.take_name();
        self.attrs = Attrs::default();
        loop {
            self.skip_whitespace();
            let rest = &self.src.as_bytes()[self.pos..];
            if rest.is_empty() {
                return Token::Start { tag, childless: true };
            }
            if rest.starts_with(b"/>") {
                self.pos += 2;
                return Token::Start { tag, childless: true };
            }
            if rest[0] == b'>' {
                self.pos += 1;
                break;
            }
            let name =
                self.take_while(|b| !b.is_ascii_whitespace() && !matches!(b, b'=' | b'>' | b'/'));
            if name.is_empty() {
                // A stray `=` or `/`.
                self.pos += 1;
                continue;
            }
            self.skip_whitespace();
            let mut raw = "";
            if self.src.as_bytes().get(self.pos) == Some(&b'=') {
                self.pos += 1;
                self.skip_whitespace();
                raw = self.attr_value();
            }
            self.attrs.set(name, raw);
        }
        Token::Start { tag, childless: false }
    }

    /// A quoted value (an unclosed quote runs to the end) or an unquoted
    /// one (up to whitespace or `>`).
    fn attr_value(&mut self) -> &'a str {
        match self.src.as_bytes().get(self.pos) {
            Some(&quote @ (b'"' | b'\'')) => {
                self.pos += 1;
                let raw = self.take_while(|b| b != quote);
                if self.pos < self.src.len() {
                    self.pos += 1;
                }
                raw
            }
            _ => self.take_while(|b| !b.is_ascii_whitespace() && b != b'>'),
        }
    }

    /// A text run; `pos` is on its first byte, which is text even when it
    /// is a `<`. It ends before the next `<` that opens a tag, a close
    /// tag, a comment or a declaration.
    fn text(&mut self) -> Token<'a> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let mut end = start + 1;
        while let Some(i) = bytes[end..].iter().position(|&b| b == b'<') {
            end += i;
            if bytes
                .get(end + 1)
                .is_some_and(|&b| b.is_ascii_alphabetic() || b == b'/' || b == b'!')
            {
                self.pos = end;
                return Token::Text(&self.src[start..end]);
            }
            end += 1;
        }
        self.pos = bytes.len();
        Token::Text(&self.src[start..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A representative platform-rendered profile page.
    const RICH: &str = r#"<!DOCTYPE html><html><head><title>x</title></head><body>
      <div id="profile" data-uid="u42">
        <h1 class="name">Ava Keller</h1>
        <img class="profile-photo" src="/photo/u42">
        <span class="gender">female</span>
        <ul class="networks"><li class="network" data-school="s0">HS1</li></ul>
        <ul class="education">
          <li class="edu" data-kind="highschool" data-school="s0" data-year="2014">HS1, Class of 2014</li>
          <li class="edu" data-kind="college" data-school="s2">State College</li>
        </ul>
        <span class="current-city" data-city="c0">HS1 City, NY</span>
        <span class="relationship">Single</span>
        <span class="birthday" data-date="1992-06-01">1992-06-01</span>
        <span class="photos-count" data-count="19">19 photos</span>
        <a class="friends-link" href="/friends/u42">Friends</a>
        <a class="message-button" href="/message/u42">Message</a>
      </div></body></html>"#;

    const MINIMAL: &str = r#"<!DOCTYPE html><html><body>
      <div id="profile" data-uid="u7">
        <h1 class="name">Bo Nash</h1>
        <img class="profile-photo" src="/photo/u7">
        <span class="gender">male</span>
      </div></body></html>"#;

    #[test]
    fn parses_rich_profile() {
        let p = parse_profile(RICH);
        assert_eq!(p.uid, Some(UserId(42)));
        assert_eq!(p.name, "Ava Keller");
        assert_eq!(p.education.len(), 2);
        assert_eq!(
            p.listed_high_school(),
            Some(ScrapedEducation {
                school: SchoolId(0),
                kind: ScrapedEduKind::HighSchool,
                grad_year: Some(2014),
            })
        );
        assert_eq!(p.current_city, Some(CityId(0)));
        assert_eq!(p.birthday, Some(Date::ymd(1992, 6, 1)));
        assert_eq!(p.photos_shared, Some(19));
        assert!(p.friend_list_visible);
        assert!(p.message_button);
        assert!(!p.is_minimal());
        assert!(p.claims_current_student(SchoolId(0), 2012));
        assert!(!p.claims_current_student(SchoolId(0), 2015));
        assert!(!p.lists_graduate_school());
    }

    #[test]
    fn parses_minimal_profile() {
        let p = parse_profile(MINIMAL);
        assert_eq!(p.uid, Some(UserId(7)));
        assert!(p.is_minimal());
        assert!(p.listed_high_school().is_none());
    }

    #[test]
    fn junk_page_yields_default() {
        let p = parse_profile("<html><body><p>404</p></body></html>");
        assert_eq!(p.uid, None);
        assert!(p.is_minimal());
    }

    #[test]
    fn parses_listing_with_next() {
        let html = r#"<ul id="results">
          <li class="entry"><a class="profile-link" href="/profile/u3">A</a></li>
          <li class="entry"><a class="profile-link" href="/profile/u9">B</a></li>
        </ul><a id="next-page" href="/find-friends?school=s0&amp;page=2">More</a>"#;
        let (ids, next) = parse_listing(html);
        assert_eq!(ids, vec![UserId(3), UserId(9)]);
        assert_eq!(next.as_deref(), Some("/find-friends?school=s0&page=2"));
    }

    #[test]
    fn parses_listing_without_next() {
        let (ids, next) = parse_listing(r#"<ul id="friends"></ul>"#);
        assert!(ids.is_empty());
        assert!(next.is_none());
    }

    #[test]
    fn parses_generation_stamp_and_tombstone() {
        let stamped = r#"<div id="profile" data-uid="u3" data-gen="17">
          <h1 class="name">Gen Carrier</h1></div>"#;
        let p = parse_profile(stamped);
        assert_eq!(p.generation, Some(17));
        assert!(!p.tombstoned);
        // Frozen-platform pages carry no stamp.
        assert_eq!(parse_profile(MINIMAL).generation, None);

        let tomb = hsp_platform::render::tombstone_page(UserId(8), 4);
        let p = parse_profile(&tomb);
        assert_eq!(p.uid, Some(UserId(8)));
        assert!(p.tombstoned);
        assert_eq!(p.generation, Some(4));
        assert!(p.is_minimal());

        let listing = hsp_platform::render::listing_page_stamped(
            "friends",
            &[(UserId(1), "A B".into())],
            None,
            9,
        );
        let (ids, next, gen) = parse_listing_stamped(&listing);
        assert_eq!(ids, vec![UserId(1)]);
        assert!(next.is_none());
        assert_eq!(gen, Some(9));
        let (_, _, frozen_gen) = parse_listing_stamped(r#"<ul id="friends"></ul>"#);
        assert_eq!(frozen_gen, None);
    }

    #[test]
    fn round_trip_against_platform_renderer() {
        // Render with the platform's renderer and scrape it back.
        use hsp_graph::{Date as D, Network};
        use hsp_policy::PublicView;
        let mut net = Network::new(D::ymd(2012, 3, 15));
        let city = net.add_city("Rivertown", "NY");
        let school = net.add_school(hsp_graph::School {
            id: SchoolId(0),
            name: "Rivertown High".into(),
            city,
            kind: hsp_graph::SchoolKind::HighSchool,
            public_enrollment_estimate: 500,
        });
        let mut view = PublicView::minimal(
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
        let html = hsp_platform::render::profile_page(&net, &view);
        let p = parse_profile(&html);
        assert_eq!(p.uid, Some(UserId(5)));
        assert_eq!(p.name, "Cy Hale");
        assert_eq!(p.networks, vec![school]);
        assert_eq!(p.listed_high_school().unwrap().grad_year, Some(2013));
        assert_eq!(p.current_city, Some(city));
        assert_eq!(p.photos_shared, Some(33));
        assert!(p.friend_list_visible);
        assert!(!p.message_button);

        // A view that sets every field, with a name and a next-page href
        // that need entities, so a slip in any one field fails here.
        let college = net.add_school(hsp_graph::School {
            id: SchoolId(0),
            name: "State & Co. College".into(),
            city,
            kind: hsp_graph::SchoolKind::College,
            public_enrollment_estimate: 9000,
        });
        let hometown = net.add_city("O'Fallon", "IL");
        let posters: Vec<UserId> = ["Ann", "Bo"]
            .into_iter()
            .map(|first| {
                net.add_user(hsp_graph::User {
                    id: UserId(0),
                    true_birth_date: D::ymd(1990, 1, 1),
                    registration: hsp_graph::Registration {
                        registered_birth_date: D::ymd(1990, 1, 1),
                        registration_date: D::ymd(2008, 9, 1),
                    },
                    profile: hsp_graph::ProfileContent::bare(
                        first,
                        "O'Neil",
                        hsp_graph::Gender::Female,
                    ),
                    privacy: hsp_graph::PrivacySettings::facebook_adult_default(),
                    role: hsp_graph::Role::OtherResident,
                })
            })
            .collect();
        let rich = PublicView {
            user: UserId(77),
            name: "Zoë O'Hara & <Co>".into(),
            gender: Some(hsp_graph::Gender::Female),
            has_profile_photo: true,
            networks: vec![school, college],
            education: vec![
                hsp_graph::EducationEntry::high_school(school, 2013),
                hsp_graph::EducationEntry::college(college, None),
                hsp_graph::EducationEntry::graduate_school(college),
            ],
            hometown: Some(hometown),
            current_city: Some(city),
            relationship: Some(hsp_graph::RelationshipStatus::Complicated),
            interested_in: Some(hsp_graph::InterestedIn::Both),
            birthday: Some(D::ymd(1994, 2, 28)),
            friend_list_visible: true,
            photos_shared: Some(12),
            wall_posts: Some(7),
            wall_posters: posters.clone(),
            contact: Some(hsp_graph::ContactInfo {
                email: Some("zoe@example.org".into()),
                phone: Some("555-0100".into()),
                address: Some("1 Main St".into()),
            }),
            message_button: true,
        };
        let html = hsp_platform::render::profile_page_stamped(&net, &rich, 3);
        assert!(html.contains("O'Hara &amp; &lt;Co&gt;"), "name entities not exercised");
        let expected = ScrapedProfile {
            uid: Some(UserId(77)),
            name: "Zoë O'Hara & <Co>".into(),
            gender: Some("female".into()),
            has_photo: true,
            networks: vec![school, college],
            education: vec![
                ScrapedEducation {
                    school,
                    kind: ScrapedEduKind::HighSchool,
                    grad_year: Some(2013),
                },
                ScrapedEducation {
                    school: college,
                    kind: ScrapedEduKind::College,
                    grad_year: None,
                },
                ScrapedEducation {
                    school: college,
                    kind: ScrapedEduKind::GraduateSchool,
                    grad_year: None,
                },
            ],
            current_city: Some(city),
            hometown: Some(hometown),
            relationship: true,
            interested_in: true,
            birthday: Some(D::ymd(1994, 2, 28)),
            photos_shared: Some(12),
            wall_posts: Some(7),
            wall_posters: posters,
            has_contact_info: true,
            friend_list_visible: true,
            message_button: true,
            generation: Some(3),
            tombstoned: false,
        };
        assert_eq!(parse_profile(&html), expected);

        let next = "/friends/u77?page=1&sort=O'Neil".to_string();
        let listing = hsp_platform::render::listing_page_stamped(
            "friends",
            &[(UserId(3), "Ann O'Neil".into()), (UserId(4), "Bo & Co".into())],
            Some(next.clone()),
            11,
        );
        assert!(listing.contains("&amp;sort=O&#39;Neil"), "href entities not exercised");
        assert_eq!(
            parse_listing_stamped(&listing),
            (vec![UserId(3), UserId(4)], Some(next), Some(11))
        );
    }
}
