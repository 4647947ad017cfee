//! A minimal DOM tree shared by the HTML builder and parser.

use crate::escape::{escape_attr_into, escape_text_into};

/// Elements that never have children or a closing tag.
pub const VOID_ELEMENTS: &[&str] = &[
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link", "meta", "source", "track",
    "wbr",
];

/// Whether `tag` is an HTML void element.
pub fn is_void(tag: &str) -> bool {
    VOID_ELEMENTS.contains(&tag)
}

/// A DOM node: an element or a text run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Node {
    Element(Element),
    Text(String),
}

impl Node {
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }
}

/// An element with a tag name, attributes (in insertion order) and
/// children.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Element {
    pub tag: String,
    pub attrs: Vec<(String, String)>,
    pub children: Vec<Node>,
}

impl Element {
    pub fn new(tag: impl Into<String>) -> Self {
        Element { tag: tag.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// Builder-style: set an attribute (replacing an existing one).
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(name, value);
        self
    }

    /// Builder-style: add the `class` attribute.
    pub fn class(self, value: impl Into<String>) -> Self {
        self.attr("class", value)
    }

    /// Builder-style: add the `id` attribute.
    pub fn id(self, value: impl Into<String>) -> Self {
        self.attr("id", value)
    }

    /// Builder-style: append a child element.
    pub fn child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder-style: append a text child.
    pub fn text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// Set an attribute in place, replacing any existing value.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attrs.push((name, value));
        }
    }

    /// Look up an attribute value.
    pub fn get_attr(&self, name: &str) -> Option<&str> {
        self.attrs.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the space-separated `class` attribute contains `class_name`.
    pub fn has_class(&self, class_name: &str) -> bool {
        self.get_attr("class")
            .map(|c| c.split_ascii_whitespace().any(|p| p == class_name))
            .unwrap_or(false)
    }

    /// Concatenated text of all descendant text nodes.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for child in &self.children {
            match child {
                Node::Text(t) => out.push_str(t),
                Node::Element(e) => e.collect_text(out),
            }
        }
    }

    /// Render to an HTML string (escaped, no pretty-printing).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.rendered_len_hint());
        self.render_into(&mut out);
        out
    }

    /// Lower-bound estimate of the rendered length (exact when no
    /// character needs escaping). Lets callers pre-size output buffers
    /// and avoid the doubling reallocations of a cold `String`.
    pub fn rendered_len_hint(&self) -> usize {
        // `<tag>` ... `</tag>` plus ` name="value"` per attribute.
        let mut n = 2 + self.tag.len();
        for (name, value) in &self.attrs {
            n += name.len() + value.len() + 4;
        }
        if is_void(&self.tag) {
            return n;
        }
        n += 3 + self.tag.len();
        for child in &self.children {
            n += match child {
                Node::Text(t) => t.len(),
                Node::Element(e) => e.rendered_len_hint(),
            };
        }
        n
    }

    /// Render into an existing buffer (the allocation-free core of
    /// [`Element::render`]).
    pub fn render_into(&self, out: &mut String) {
        out.push('<');
        out.push_str(&self.tag);
        for (name, value) in &self.attrs {
            out.push(' ');
            out.push_str(name);
            out.push_str("=\"");
            escape_attr_into(value, out);
            out.push('"');
        }
        out.push('>');
        if is_void(&self.tag) {
            return;
        }
        for child in &self.children {
            match child {
                Node::Text(t) => escape_text_into(t, out),
                Node::Element(e) => e.render_into(out),
            }
        }
        out.push_str("</");
        out.push_str(&self.tag);
        out.push('>');
    }
}

/// Shorthand constructor: `el("div")`.
pub fn el(tag: &str) -> Element {
    Element::new(tag)
}

/// Shorthand: a text-only element, e.g. `text_el("span", "hello")`.
pub fn text_el(tag: &str, text: impl Into<String>) -> Element {
    Element::new(tag).text(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_escaped_html() {
        let doc = el("div")
            .class("profile")
            .child(text_el("span", "Tom & Jerry"))
            .child(el("a").attr("href", "/u?x=\"1\"").text("link"));
        let html = doc.render();
        assert_eq!(
            html,
            r#"<div class="profile"><span>Tom &amp; Jerry</span><a href="/u?x=&quot;1&quot;">link</a></div>"#
        );
    }

    #[test]
    fn void_elements_have_no_closing_tag() {
        let doc = el("div").child(el("br")).child(el("img").attr("src", "p.jpg"));
        assert_eq!(doc.render(), r#"<div><br><img src="p.jpg"></div>"#);
    }

    #[test]
    fn attr_replacement() {
        let mut e = el("a").attr("href", "/x");
        e.set_attr("href", "/y");
        assert_eq!(e.get_attr("href"), Some("/y"));
        assert_eq!(e.attrs.len(), 1);
    }

    #[test]
    fn class_membership() {
        let e = el("li").class("friend entry  hidden");
        assert!(e.has_class("friend"));
        assert!(e.has_class("hidden"));
        assert!(!e.has_class("fri"));
        assert!(!el("li").has_class("friend"));
    }

    #[test]
    fn text_content_concatenates_descendants() {
        let doc = el("p").text("Hello ").child(text_el("b", "bold")).text(" world");
        assert_eq!(doc.text_content(), "Hello bold world");
    }
}
