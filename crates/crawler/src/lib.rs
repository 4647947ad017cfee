//! # hsp-crawler — the attacker's crawler
//!
//! Implements the measurement side of the paper's methodology: logging
//! in with fake accounts, paging through the Find-Friends portal for
//! seeds, downloading public profile pages and friend lists (20 per
//! AJAX request), parsing the HTML back into structured records
//! ([`scrape`]), counting every HTTP GET for the Table 3 effort
//! analysis ([`effort`]), and pacing requests with a (virtual)
//! politeness clock (§3.2).
//!
//! There is one crawl engine, [`ParallelCrawler`]: one seat per fake
//! account, each with its own exchange, virtual clock and pacing, and
//! a deterministic scheduler that shards work over the seats (results
//! are bit-identical at any worker count; the paper's crawl is
//! `workers = 1`). It is generic over the HTTP transport, so identical
//! attack code runs over loopback TCP or in-process. Its one crawl
//! state is the committed [`ResumeState`], which its journal persists
//! for crash-only resume ([`journal`]).

pub mod driver;
pub mod effort;
pub mod journal;
pub mod scheduler;
pub mod scrape;
pub mod snapshot;

pub use driver::{AdaptiveStrategy, CrawlError, OsnAccess, Politeness};
pub use effort::Effort;
pub use journal::{
    fold_state, recover, recover_bytes, recover_instrumented, Journal, JournalError,
    JournalMetrics, JournalRecord, KillPlan, LaneState, PacingState, RecoveredLog, ResumeState,
    SchedState, LANE_RECOVERY,
};
pub use scheduler::{AccountSeat, ParallelCrawler, ParallelCrawlerBuilder};
pub use scrape::{parse_listing, parse_profile, ScrapedEduKind, ScrapedEducation, ScrapedProfile};
pub use snapshot::{CrawlSnapshot, SnapshotAccess, SnapshotError, SNAPSHOT_VERSION};
