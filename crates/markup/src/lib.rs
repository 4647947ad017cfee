//! # hsp-markup — tiny HTML generator and parser
//!
//! The simulated OSN (`hsp-platform`) renders profile, search and
//! friend-list pages as HTML; the attacker (`hsp-crawler`) scrapes them
//! back, exactly as the paper's crawlers "download the HTML source code
//! of each Web page \[and\] extract relevant data" (§3.2). This crate
//! provides:
//!
//! - [`dom`]: an element tree with a builder API and escaped rendering
//!   (the platform's renderer);
//! - [`parser`]: a tolerant HTML parser that never panics on bad input;
//! - [`mod@select`]: a tiny CSS-selector subset;
//! - [`escape`]: entity escaping/decoding.
//!
//! The crawler scrapes with a single-pass scanner of its own that lexes
//! as [`parser`] does and decodes with [`unescape`]. The parser and the
//! selectors are the reference its differential test compares against,
//! and the platform's tests read rendered pages with them.

pub mod dom;
pub mod escape;
pub mod parser;
pub mod select;

pub use dom::{el, text_el, Element, Node};
pub use escape::{escape_attr, escape_text, unescape};
pub use parser::{parse, parse_first};
pub use select::{select, select_first, Selector};
