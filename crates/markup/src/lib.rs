//! # hsp-markup — tiny HTML generator and parser
//!
//! The simulated OSN (`hsp-platform`) renders profile, search and
//! friend-list pages as HTML; the attacker (`hsp-crawler`) scrapes them
//! back, exactly as the paper's crawlers "download the HTML source code
//! of each Web page \[and\] extract relevant data" (§3.2). This crate
//! provides:
//!
//! - [`dom`]: an element tree with a builder API and escaped rendering;
//! - [`parser`]: a tolerant HTML parser that never panics on bad input;
//! - [`mod@select`]: a tiny CSS-selector subset;
//! - [`escape`]: entity escaping/decoding.
//!
//! Neither side builds a tree at run time. The platform writes each page
//! straight into one buffer with [`escape::escape_text_into`] and
//! [`escape::escape_attr_into`]; the crawler scrapes with a single-pass
//! scanner of its own that lexes as [`parser`] does and decodes with
//! [`unescape`]. The trees are their test oracles: the builder is the
//! renderer the platform's differential test compares its writer
//! against, and the parser and selectors are the scraper the crawler's
//! differential test compares its scanner against. The platform's tests
//! also read rendered pages with them.

pub mod dom;
pub mod escape;
pub mod parser;
pub mod select;

pub use dom::{el, text_el, Element, Node};
pub use escape::{escape_attr, escape_text, unescape};
pub use parser::{parse, parse_first};
pub use select::{select, select_first, Selector};
