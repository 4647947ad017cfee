//! # hsp-http — minimal blocking HTTP/1.1 substrate
//!
//! The paper's attack is carried out by "customized crawlers that visit
//! public Web pages ... and download the HTML source code of each Web
//! page" (§3.2). To reproduce that faithfully, the simulated OSN
//! (`hsp-platform`) is served over real HTTP and the attacker
//! (`hsp-crawler`) really issues GETs — including the AJAX-style paging
//! the paper describes for search results and friend lists.
//!
//! This crate is the shared substrate: wire types ([`types`],
//! [`message`]), an incremental `bytes`-based codec ([`wire`]), URL and
//! query handling ([`uri`]), cookies ([`cookie`]), a path router
//! ([`router`]), a thread-pool TCP server ([`server`]) and a keep-alive
//! client plus an in-memory fast path ([`client`]).
//!
//! The server is deliberately synchronous (std::net + worker pool, in
//! the from-scratch spirit of smoltcp) — the workload is a handful of
//! loopback crawler connections, far below where an async runtime pays
//! for itself.

pub mod chaos;
pub mod client;
pub mod cookie;
pub mod error;
pub mod message;
pub mod resilient;
pub mod router;
pub mod server;
pub mod types;
pub mod uri;
pub mod wire;

pub use chaos::{ChaosPlan, ChaosStats, ChaosStream, ChaosTransport};
pub use client::{Client, DirectExchange, Exchange, TransportState, DEFAULT_CLIENT_READ_TIMEOUT};
pub use cookie::{request_cookie, CookieJar};
pub use error::{HttpError, Result};
pub use message::{Request, Response};
pub use resilient::{
    captcha_delay_ms, classify, is_edge_limited, is_fault_limited, is_shed, is_throttled,
    refusal_provenance, retryable_transport_error, ErrorClass, ResilientExchange, RetryPolicy,
    RetryStats, RetryStatsSnapshot, H_ATTEMPT_SEQ, H_TRACE_ID,
};
pub use router::{Handler, PathParams, Router};
pub use server::{RateLimit, Server, ServerConfig};
pub use types::{Headers, Method, Status};
pub use uri::{build_query, parse_query, percent_decode, percent_encode, url, Target};
