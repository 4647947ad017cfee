//! Crawl snapshots: the analysis-side view of everything a crawl
//! fetched, replayed offline.
//!
//! The paper's pipeline stored scraped pages in an SQL database and ran
//! the analysis offline (§3.2). [`CrawlSnapshot`] is the equivalent: the
//! seeds, profiles and complete friend lists of a crawl plus its effort
//! ([`OsnAccess::checkpoint`], [`CrawlSnapshot::capture`]), and
//! [`SnapshotAccess`] replays it through the same [`OsnAccess`]
//! interface the live crawler implements — so any methodology run can
//! be reproduced without the platform. The crawl journal
//! ([`crate::journal`]) is the attacker's only on-disk format; a
//! snapshot's JSON form ([`CrawlSnapshot::to_json`]) is an export, and
//! [`CrawlSnapshot::from_json`] validates it as input.

use crate::driver::{CrawlError, OsnAccess};
use crate::effort::Effort;
use crate::scrape::ScrapedProfile;
use hsp_graph::{SchoolId, UserId};
use hsp_obs::trace::{fnv1a_chain, FNV_OFFSET};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Snapshot JSON format version. Bumped when the payload layout
/// changes incompatibly; [`CrawlSnapshot::from_json`] refuses anything
/// else with a descriptive error instead of misparsing.
pub const SNAPSHOT_VERSION: u64 = 1;

/// Typed failures of snapshot (de)serialization, so input validation
/// can tell "not a snapshot" from "a valid snapshot of an incompatible
/// version" from "a payload that was tampered with".
#[derive(Debug)]
pub enum SnapshotError {
    /// The in-memory snapshot failed to serialize (should not happen;
    /// surfaced instead of panicking).
    Serialize(String),
    /// The input was not parseable as a snapshot envelope.
    Parse(String),
    /// The envelope parsed but declares a different format version.
    VersionMismatch { found: u64, expected: u64 },
    /// The payload does not hash to the recorded FNV-1a digest: the
    /// input was truncated, bit-flipped or hand-edited.
    DigestMismatch { found: String, expected: String },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Serialize(e) => write!(f, "snapshot serialize: {e}"),
            SnapshotError::Parse(e) => write!(f, "snapshot parse: {e}"),
            SnapshotError::VersionMismatch { found, expected } => write!(
                f,
                "snapshot version mismatch: file is v{found}, this build reads v{expected}"
            ),
            SnapshotError::DigestMismatch { found, expected } => write!(
                f,
                "snapshot digest mismatch: payload hashes to {found}, envelope records \
                 {expected} (torn or corrupted file)"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Everything one crawl saw, in stable (BTree) order.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CrawlSnapshot {
    /// Seeds per school searched.
    pub seeds: BTreeMap<SchoolId, Vec<UserId>>,
    /// Scraped public profiles.
    pub profiles: BTreeMap<UserId, ScrapedProfile>,
    /// Friend lists (`None` = list hidden from strangers).
    pub friends: BTreeMap<UserId, Option<Vec<UserId>>>,
    /// Effort spent producing this snapshot.
    pub effort: Effort,
    /// If the capture stopped early, the user whose fetch failed and
    /// the error, e.g. `("u93", "suspended: request budget exhausted")`.
    /// Everything fetched *before* that user is still in the snapshot —
    /// hours of crawling are not discarded because one page refused.
    #[serde(default)]
    pub aborted_at: Option<(UserId, String)>,
}

impl CrawlSnapshot {
    /// Whether the capture covered every requested user.
    pub fn is_complete(&self) -> bool {
        self.aborted_at.is_none()
    }

    /// Record a full crawl for `school`: seeds, their profiles, every
    /// friend list the given user set needs. `users` is typically the
    /// union of seeds + candidates the analysis will touch.
    ///
    /// A fetch failure mid-crawl does **not** discard progress: the
    /// snapshot is returned with everything captured so far and
    /// [`CrawlSnapshot::aborted_at`] names the user that failed. Only a
    /// seed-collection failure (nothing fetched yet) is a hard error.
    pub fn capture(
        access: &mut dyn OsnAccess,
        school: SchoolId,
        extra_users: &[UserId],
    ) -> Result<CrawlSnapshot, CrawlError> {
        let mut snap = CrawlSnapshot::default();
        let seeds = access.collect_seeds(school)?;
        for &u in seeds.iter().chain(extra_users) {
            let profile = match access.profile(u) {
                Ok(p) => p,
                Err(e) => {
                    snap.aborted_at = Some((u, e.to_string()));
                    break;
                }
            };
            let friends = match access.friends(u) {
                Ok(f) => f,
                Err(e) => {
                    // Keep the profile we just paid for; note the gap.
                    snap.profiles.insert(u, profile);
                    snap.aborted_at = Some((u, e.to_string()));
                    break;
                }
            };
            snap.profiles.insert(u, profile);
            snap.friends.insert(u, friends);
        }
        snap.seeds.insert(school, seeds);
        snap.effort = access.effort();
        Ok(snap)
    }

    /// Serialize to JSON, wrapped in a self-validating envelope: the
    /// payload object gains a `version` field and an FNV-1a `digest`
    /// over the payload's canonical (compact, key-sorted) rendering.
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        let mut value =
            serde_json::to_value(self).map_err(|e| SnapshotError::Serialize(e.to_string()))?;
        let payload_digest = {
            let payload = value.render_compact();
            format!("{:016x}", fnv1a_chain(FNV_OFFSET, payload.as_bytes()))
        };
        let obj = value
            .as_object_mut()
            .ok_or_else(|| SnapshotError::Serialize("snapshot is not an object".into()))?;
        obj.insert("version".into(), serde_json::to_value(SNAPSHOT_VERSION).unwrap());
        obj.insert("digest".into(), serde_json::to_value(&payload_digest).unwrap());
        Ok(value.render_compact())
    }

    /// Deserialize from JSON, validating the envelope: wrong `version`
    /// or a payload that does not hash to `digest` is a typed error,
    /// not a silent misparse. Envelopes written before versioning
    /// (no `version`/`digest` keys) still load.
    pub fn from_json(s: &str) -> Result<CrawlSnapshot, SnapshotError> {
        let mut value: serde_json::Value =
            serde_json::from_str(s).map_err(|e| SnapshotError::Parse(e.to_string()))?;
        let obj = value
            .as_object_mut()
            .ok_or_else(|| SnapshotError::Parse("snapshot is not a JSON object".into()))?;
        let version = obj.remove("version");
        let digest = obj.remove("digest");
        if let Some(v) = version {
            let found = v.as_u64().ok_or_else(|| {
                SnapshotError::Parse("snapshot `version` is not an integer".into())
            })?;
            if found != SNAPSHOT_VERSION {
                return Err(SnapshotError::VersionMismatch { found, expected: SNAPSHOT_VERSION });
            }
        }
        if let Some(d) = digest {
            let expected = d
                .as_str()
                .ok_or_else(|| SnapshotError::Parse("snapshot `digest` is not a string".into()))?
                .to_string();
            let found =
                format!("{:016x}", fnv1a_chain(FNV_OFFSET, value.render_compact().as_bytes()));
            if found != expected {
                return Err(SnapshotError::DigestMismatch { found, expected });
            }
        }
        serde_json::from_value(value).map_err(|e| SnapshotError::Parse(e.to_string()))
    }
}

/// Replay a snapshot through the `OsnAccess` interface. Requests for
/// pages the snapshot never captured fail with `BadPage` — offline
/// analysis can only see what the crawl saw, exactly like the paper's
/// database.
pub struct SnapshotAccess {
    snapshot: CrawlSnapshot,
    /// Effort of the *replayed* requests (all free — nothing is
    /// fetched), kept for interface completeness.
    replay_effort: Effort,
}

impl SnapshotAccess {
    pub fn new(snapshot: CrawlSnapshot) -> SnapshotAccess {
        SnapshotAccess { snapshot, replay_effort: Effort::default() }
    }

    /// The original crawl's effort.
    pub fn original_effort(&self) -> Effort {
        self.snapshot.effort
    }
}

impl OsnAccess for SnapshotAccess {
    fn collect_seeds(&mut self, school: SchoolId) -> Result<Vec<UserId>, CrawlError> {
        self.snapshot
            .seeds
            .get(&school)
            .cloned()
            .ok_or(CrawlError::BadPage("school not in snapshot"))
    }

    fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError> {
        self.snapshot
            .profiles
            .get(&uid)
            .cloned()
            .ok_or(CrawlError::BadPage("profile not in snapshot"))
    }

    fn friends(&mut self, uid: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
        self.snapshot
            .friends
            .get(&uid)
            .cloned()
            .ok_or(CrawlError::BadPage("friend list not in snapshot"))
    }

    fn effort(&self) -> Effort {
        self.replay_effort
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> CrawlSnapshot {
        let mut snap = CrawlSnapshot::default();
        snap.seeds.insert(SchoolId(0), vec![UserId(1), UserId(2)]);
        snap.profiles
            .insert(UserId(1), ScrapedProfile { name: "A B".into(), ..Default::default() });
        snap.friends.insert(UserId(1), Some(vec![UserId(2)]));
        snap.friends.insert(UserId(2), None);
        snap.effort = Effort { seed_requests: 3, ..Default::default() };
        snap
    }

    #[test]
    fn json_round_trip() {
        let snap = snapshot();
        let restored = CrawlSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn envelope_carries_version_and_digest() {
        let text = snapshot().to_json().unwrap();
        assert!(text.contains("\"version\":1"), "no version stamp in {text}");
        assert!(text.contains("\"digest\":\""), "no digest stamp in {text}");
    }

    #[test]
    fn version_mismatch_is_a_descriptive_error() {
        let text = snapshot().to_json().unwrap().replace("\"version\":1", "\"version\":9");
        match CrawlSnapshot::from_json(&text) {
            Err(SnapshotError::VersionMismatch { found: 9, expected }) => {
                assert_eq!(expected, SNAPSHOT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        let msg = CrawlSnapshot::from_json(&text).unwrap_err().to_string();
        assert!(msg.contains("v9"), "unhelpful message: {msg}");
    }

    #[test]
    fn payload_tampering_is_a_digest_error() {
        // Flip a payload value without touching the recorded digest.
        let text =
            snapshot().to_json().unwrap().replace("\"seed_requests\":3", "\"seed_requests\":4");
        match CrawlSnapshot::from_json(&text) {
            Err(SnapshotError::DigestMismatch { found, expected }) => {
                assert_ne!(found, expected);
            }
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn legacy_envelope_without_stamps_still_loads() {
        // Strip the envelope fields: pre-versioning snapshots load.
        let mut value: serde_json::Value =
            serde_json::from_str(&snapshot().to_json().unwrap()).unwrap();
        let obj = value.as_object_mut().unwrap();
        obj.remove("version");
        obj.remove("digest");
        let restored = CrawlSnapshot::from_json(&value.render_compact()).unwrap();
        assert_eq!(restored, snapshot());
    }

    #[test]
    fn capture_keeps_progress_on_mid_crawl_failure() {
        // An access layer that dies on the third user: everything paid
        // for before that must survive into the snapshot.
        struct Flaky {
            served: u64,
        }
        impl OsnAccess for Flaky {
            fn collect_seeds(&mut self, _: SchoolId) -> Result<Vec<UserId>, CrawlError> {
                Ok(vec![UserId(1), UserId(2), UserId(3), UserId(4)])
            }
            fn profile(&mut self, uid: UserId) -> Result<ScrapedProfile, CrawlError> {
                if uid == UserId(3) {
                    return Err(CrawlError::BadPage("suspended mid-crawl"));
                }
                self.served += 1;
                Ok(ScrapedProfile { uid: Some(uid), ..Default::default() })
            }
            fn friends(&mut self, _: UserId) -> Result<Option<Vec<UserId>>, CrawlError> {
                Ok(None)
            }
            fn effort(&self) -> Effort {
                Effort { profile_requests: self.served, ..Default::default() }
            }
        }

        let mut access = Flaky { served: 0 };
        let snap = CrawlSnapshot::capture(&mut access, SchoolId(0), &[]).unwrap();
        assert!(!snap.is_complete());
        let (failed, why) = snap.aborted_at.clone().unwrap();
        assert_eq!(failed, UserId(3));
        assert!(why.contains("suspended mid-crawl"));
        // Users 1 and 2 were fetched before the failure and are kept;
        // the failing user and everything after it are absent.
        assert_eq!(snap.profiles.len(), 2);
        assert!(snap.profiles.contains_key(&UserId(1)));
        assert!(snap.profiles.contains_key(&UserId(2)));
        assert!(!snap.profiles.contains_key(&UserId(3)));
        assert!(!snap.profiles.contains_key(&UserId(4)));
        // Effort reflects what was actually paid, and the partial flag
        // round-trips through JSON.
        assert_eq!(snap.effort.profile_requests, 2);
        let restored = CrawlSnapshot::from_json(&snap.to_json().unwrap()).unwrap();
        assert_eq!(restored, snap);
        // Pre-aborted_at snapshots (no field in the JSON) load as
        // complete.
        let legacy = CrawlSnapshot::from_json(&snapshot().to_json().unwrap()).unwrap();
        assert!(legacy.is_complete());
    }

    #[test]
    fn replay_serves_captured_data_only() {
        let mut access = SnapshotAccess::new(snapshot());
        assert_eq!(access.collect_seeds(SchoolId(0)).unwrap(), vec![UserId(1), UserId(2)]);
        assert_eq!(access.profile(UserId(1)).unwrap().name, "A B");
        assert_eq!(access.friends(UserId(1)).unwrap(), Some(vec![UserId(2)]));
        assert_eq!(access.friends(UserId(2)).unwrap(), None);
        // Uncaptured pages are unavailable offline.
        assert!(access.profile(UserId(9)).is_err());
        assert!(access.collect_seeds(SchoolId(7)).is_err());
        assert_eq!(access.original_effort().seed_requests, 3);
        assert_eq!(access.effort(), Effort::default());
    }
}
