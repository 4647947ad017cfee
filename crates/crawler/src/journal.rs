//! Durable crawl journal: a length-prefixed, CRC32-framed, monotonically
//! sequenced append-only WAL of the crawler's committed state changes,
//! with group-commit batching.
//!
//! The paper's crawl ran for weeks from commodity machines; the
//! reproduction's attacker must therefore be **crash-only**: killing the
//! process at any instant — including mid-`write(2)`, leaving a torn
//! frame — and restarting it must reproduce the uninterrupted run
//! bit-for-bit. The journal is the attacker's only on-disk format:
//!
//! - **One state, one transition**: [`ResumeState`] is the crawler's
//!   committed state. Each crawl operation builds its
//!   [`JournalRecord`]s, appends them when a journal is attached, then
//!   applies them with [`ResumeState::apply`] — the function
//!   [`fold_state`] runs over a recovered log. A crawler therefore
//!   equals the fold of its own journal by construction.
//! - **One lane state**: a `Lane` record is the seat's own
//!   [`LaneState`], which the seat keeps live; the scheduler keeps its
//!   [`SchedState`] the same way. hsp-http's [`TransportState`] and
//!   [`RetryStatsSnapshot`] are journaled as they are, so no type here
//!   mirrors another crate's.
//! - **Framing**: each record is `[u32 len][u64 seq][u32 crc][payload]`
//!   (little-endian). The CRC covers the sequence number *and* the
//!   payload, so a flipped byte anywhere in a frame — including its
//!   header — is detected. `len` is validated implicitly: a corrupt
//!   length re-frames the scan onto bytes whose CRC cannot match.
//! - **Group commit**: records buffer in memory and reach the file in
//!   one `write` + `fdatasync` per committed group (one group per
//!   crawler operation). A crash between groups loses at most the
//!   uncommitted operation, which the resumed crawler deterministically
//!   re-executes.
//! - **Recovery**: a sequential scan that accepts the longest valid
//!   committed prefix. A bad frame with *no* valid frame after it is a
//!   torn tail (discarded, counted); a bad frame *followed by* a valid
//!   frame is interior corruption and recovery refuses to silently skip
//!   it — that distinction is what makes recovery safe rather than
//!   merely permissive. Sequence gaps between valid frames are hard
//!   errors too.
//! - **Reopen**: [`Journal::create_with_base`] writes one `Base` record
//!   of the recovered state to `<path>.tmp`, fsyncs it, then renames it
//!   over the old journal, which stays authoritative until the new file
//!   is durable. It is the journal's only compaction.
//!
//! Kill-point injection ([`KillPlan`]) deterministically simulates the
//! crash at flush time: bytes up to (or partway into) the N-th record
//! reach the file, everything later in the group is lost, and the
//! journal reports [`JournalError::Killed`] — the in-process analogue
//! of `kill -9` between two sectors of a group write.

use crate::effort::Effort;
use crate::scrape::ScrapedProfile;
use hsp_graph::{SchoolId, UserId};
use hsp_http::{RetryStatsSnapshot, TransportState};
use hsp_obs::trace::{fnv1a_chain, FNV_OFFSET};
use hsp_obs::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes of frame header: `u32` length + `u64` sequence + `u32` CRC.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Sanity bound on a single frame's payload; anything larger is treated
/// as a corrupt length during recovery.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Reserved flight-recorder lane for recovery spans, far outside any
/// username-derived lane. Excluded from resume-determinism digests via
/// [`hsp_obs::FlightRecorder::digest_excluding`].
pub const LANE_RECOVERY: u64 = u64::MAX;

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Run the CRC32 register `c` over `bytes` (no pre- or post-inversion).
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC32 (table-based; no external crate).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc_update(0xffff_ffff, bytes) ^ 0xffff_ffff
}

/// A frame's CRC: `crc32(seq ‖ payload)`, without concatenating them.
fn crc_of(seq: u64, payload: &[u8]) -> u32 {
    crc_update(crc_update(0xffff_ffff, &seq.to_le_bytes()), payload) ^ 0xffff_ffff
}

/// Journal failures. `Killed` is the deterministic kill-point firing —
/// the crash-harness analogue of the process dying mid-commit.
#[derive(Debug)]
pub enum JournalError {
    Io(std::io::Error),
    Encode(String),
    /// A frame with a valid CRC decoded to no known record shape.
    Decode {
        seq: u64,
        detail: String,
    },
    /// A corrupt or incomplete frame *followed by* a valid frame:
    /// recovery refuses to skip interior gaps.
    InteriorCorruption {
        offset: u64,
        next_valid_offset: u64,
    },
    /// Valid CRC but the sequence number is not the expected successor.
    SequenceGap {
        expected: u64,
        found: u64,
        offset: u64,
    },
    /// The configured [`KillPlan`] fired; the process is "dead".
    Killed,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal io: {e}"),
            JournalError::Encode(e) => write!(f, "journal encode: {e}"),
            JournalError::Decode { seq, detail } => {
                write!(f, "journal decode at seq {seq}: {detail}")
            }
            JournalError::InteriorCorruption { offset, next_valid_offset } => write!(
                f,
                "journal interior corruption at byte {offset} (valid frame follows at \
                 {next_valid_offset}); refusing to skip the gap"
            ),
            JournalError::SequenceGap { expected, found, offset } => write!(
                f,
                "journal sequence gap at byte {offset}: expected seq {expected}, found {found}"
            ),
            JournalError::Killed => write!(f, "journal kill point fired"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Deterministic crash injection: the process "dies" while flushing the
/// group that contains lifetime record number `after_records` (1-based,
/// counting a reopen's `Base` group). Bytes up to the end of that
/// record's frame — or only `torn_bytes` of it, simulating a torn
/// sector write — reach the file; the rest of the group is lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPlan {
    pub after_records: u64,
    pub torn_bytes: Option<usize>,
}

impl KillPlan {
    pub fn after(after_records: u64) -> KillPlan {
        KillPlan { after_records, torn_bytes: None }
    }

    pub fn torn(after_records: u64, torn_bytes: usize) -> KillPlan {
        KillPlan { after_records, torn_bytes: Some(torn_bytes) }
    }
}

/// One account's circuit breaker for one endpoint: consecutive
/// failures and whether it is open. An open breaker pays its cooldown
/// in virtual time and goes half-open; the next request is the probe.
/// Only the thread driving the account touches it, so the live breaker
/// and its journaled form are the same plain data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BreakerState {
    pub consecutive: u32,
    pub open: bool,
}

impl BreakerState {
    /// Record one failure; `true` when this failure *opened* the
    /// breaker (the caller pays the cooldown and counts the transition).
    pub(crate) fn record_failure(&mut self, threshold: u32) -> bool {
        self.consecutive += 1;
        if self.consecutive < threshold {
            return false;
        }
        self.consecutive = 0;
        self.open = true;
        true
    }

    /// Record one success; `true` when it closed an open breaker.
    pub(crate) fn record_success(&mut self) -> bool {
        self.consecutive = 0;
        std::mem::take(&mut self.open)
    }
}

/// One account lane's state: each seat keeps its own, and the crawler
/// journals it at every commit boundary it moved across.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LaneState {
    /// Position in the scheduler's account vector (enrollment order).
    pub index: u64,
    pub username: String,
    pub password: String,
    pub suspended: bool,
    pub effort: Effort,
    /// The seat's private [`hsp_obs::VirtualClock`] position, read from
    /// the clock at each commit.
    pub clock_ms: u64,
    /// Per-endpoint breaker states, keyed by endpoint label; an
    /// endpoint gets one at its first failure.
    pub breakers: BTreeMap<String, BreakerState>,
    /// Next trace ordinal on this lane.
    pub trace_ordinal: u64,
    /// The seat's exchange state, read from the exchange at each commit.
    pub transport: TransportState,
    /// Omitted at its default, so a naive crawl's journal carries no
    /// pacing bytes.
    #[serde(default, skip_serializing_if = "PacingState::is_default")]
    pub pacing: PacingState,
}

/// One account's pacing position: the adaptive strategy's cursors and
/// the pushback widening state. Live on the account and journaled as
/// is, so an adaptive or widened crawl resumes bit-identically. A naive
/// crawl the platform never pushed back on stays at the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PacingState {
    /// Politeness draws taken from the adaptive jitter stream (also the
    /// warm-up counter).
    pub draws: u64,
    /// Profiles fetched so far (the decoy cadence counter).
    pub profiles: u64,
    /// The profile the next decoy revisits: the first one fetched in
    /// the current decoy window.
    pub revisit: Option<UserId>,
    /// Pushback multiplier on the politeness sleep (0 reads as 1).
    pub widen_factor: u64,
    /// Clean fetches since the last widening or narrowing step.
    pub calm_streak: u32,
}

impl PacingState {
    pub fn is_default(&self) -> bool {
        *self == PacingState::default()
    }
}

/// Scheduler-level resume state at a commit boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedState {
    /// Round-robin cursor for the few non-batched requests (messages).
    pub rr: u64,
    /// Modeled virtual wall clock of the whole crawl at `workers` lanes.
    pub modeled_wall_ms: u64,
    /// Accounts recruited so far (recruit usernames count from it).
    pub recruited: u64,
    /// Profile re-fetches issued by commit-time pair reconciliation
    /// (on top of the seats' own pagination-restart counts).
    pub stale_refetches: u64,
    /// The shared transport retry counters.
    pub retry_stats: RetryStatsSnapshot,
}

/// One committed circles page set (`(uid, incoming) -> members`), kept
/// as a struct list rather than a tuple-keyed map for serialization.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CirclesEntry {
    pub uid: UserId,
    pub incoming: bool,
    pub members: Option<Vec<UserId>>,
}

/// The crawler's committed state, and everything a killed crawler needs
/// to resume bit-identically: what the crawl fetched, world-generation
/// stamps, per-lane state, scheduler state. [`ResumeState::apply`] is
/// its only transition, live and in recovery alike.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeState {
    /// The crawl's label; account usernames derive from it.
    pub label: String,
    pub seeds: BTreeMap<SchoolId, Vec<UserId>>,
    pub profiles: BTreeMap<UserId, ScrapedProfile>,
    pub friends: BTreeMap<UserId, Option<Vec<UserId>>>,
    /// Sorted by `(uid, incoming)`.
    pub circles: Vec<CirclesEntry>,
    /// Users whose committed friend list is partial.
    pub incomplete: BTreeSet<UserId>,
    /// Users served tombstone pages (live-world deactivations and
    /// graduation rollovers).
    pub tombstoned: BTreeSet<UserId>,
    /// `x-world-gen` stamp each committed friend list was read at —
    /// restored so resumed pair-reconciliation sees the pre-crash view.
    pub friends_gen: BTreeMap<UserId, u64>,
    /// Sorted by index (enrollment order).
    pub lanes: Vec<LaneState>,
    pub sched: SchedState,
}

impl ResumeState {
    /// Advance the state by one committed record. The live crawler
    /// applies each group it seals with this, and [`fold_state`] replays
    /// a recovered log with it.
    pub fn apply(&mut self, record: JournalRecord) {
        match record {
            JournalRecord::Base { state } => *self = state,
            JournalRecord::SeedsCollected { school, seeds } => {
                self.seeds.insert(school, seeds);
            }
            JournalRecord::ProfileCommitted { uid, profile } => {
                if profile.tombstoned {
                    self.tombstoned.insert(uid);
                }
                self.profiles.insert(uid, profile);
            }
            JournalRecord::FriendsCommitted { uid, friends, partial, gen } => {
                if partial {
                    self.incomplete.insert(uid);
                } else {
                    self.incomplete.remove(&uid);
                }
                if let Some(g) = gen {
                    self.friends_gen.insert(uid, g);
                }
                self.friends.insert(uid, friends);
            }
            JournalRecord::CirclesCommitted { uid, incoming, members } => {
                match self.circles_slot(uid, incoming) {
                    Ok(i) => self.circles[i].members = members,
                    Err(i) => self.circles.insert(i, CirclesEntry { uid, incoming, members }),
                }
            }
            JournalRecord::Lane { lane } => {
                match self.lanes.iter_mut().find(|l| l.index == lane.index) {
                    Some(slot) => *slot = lane,
                    None => {
                        self.lanes.push(lane);
                        self.lanes.sort_by_key(|l| l.index);
                    }
                }
            }
            JournalRecord::Sched { sched } => self.sched = sched,
            JournalRecord::Commit { .. } => {}
        }
    }

    /// The committed circles of `uid` in direction `incoming`, if fetched
    /// (`None` inside: hidden from strangers).
    pub(crate) fn circles_of(&self, uid: UserId, incoming: bool) -> Option<&Option<Vec<UserId>>> {
        self.circles_slot(uid, incoming).ok().map(|i| &self.circles[i].members)
    }

    fn circles_slot(&self, uid: UserId, incoming: bool) -> Result<usize, usize> {
        self.circles.binary_search_by_key(&(uid, incoming), |c| (c.uid, c.incoming))
    }
}

/// One journal record: one committed change to a [`ResumeState`]. Data
/// records carry what the crawl fetched; `Lane`/`Sched` carry the
/// (small) mutable machine state; `Commit` seals a group; `Base` is a
/// whole state, a journal's first record.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// A whole state: the crawler's at enrollment, or the folded state
    /// of a recovered journal when [`Journal::create_with_base`] reopens
    /// it.
    Base {
        state: ResumeState,
    },
    SeedsCollected {
        school: SchoolId,
        seeds: Vec<UserId>,
    },
    ProfileCommitted {
        uid: UserId,
        profile: ScrapedProfile,
    },
    FriendsCommitted {
        uid: UserId,
        friends: Option<Vec<UserId>>,
        partial: bool,
        gen: Option<u64>,
    },
    CirclesCommitted {
        uid: UserId,
        incoming: bool,
        members: Option<Vec<UserId>>,
    },
    /// One lane's state at this commit boundary, upserted by index. The
    /// crawler emits one per lane that moved since the previous group,
    /// a newly recruited lane included — on a send-message group that
    /// is one lane out of the whole fleet.
    Lane {
        lane: LaneState,
    },
    /// Scheduler state at this commit boundary.
    Sched {
        sched: SchedState,
    },
    /// Group seal: everything since the previous `Commit` is atomic.
    Commit {
        op: String,
    },
}

/// Journal-side metrics (`crawler_journal_*`, `crawler_recovery_*`).
#[derive(Clone)]
pub struct JournalMetrics {
    pub appends_total: Arc<Counter>,
    pub bytes_total: Arc<Counter>,
    pub groups_total: Arc<Counter>,
    pub syncs_total: Arc<Counter>,
    /// Wall time spent inside journal write-path calls, in microseconds
    /// (see [`Journal::time_spent`]).
    pub write_us_total: Arc<Counter>,
    pub recovery_runs_total: Arc<Counter>,
    pub recovery_records_total: Arc<Counter>,
    pub recovery_discarded_records_total: Arc<Counter>,
    pub recovery_torn_bytes_total: Arc<Counter>,
    pub recovery_us: Arc<Histogram>,
}

impl JournalMetrics {
    pub fn register(reg: &Registry) -> JournalMetrics {
        JournalMetrics {
            appends_total: reg.counter("crawler_journal_appends_total"),
            bytes_total: reg.counter("crawler_journal_bytes_total"),
            groups_total: reg.counter("crawler_journal_groups_total"),
            syncs_total: reg.counter("crawler_journal_syncs_total"),
            write_us_total: reg.counter("crawler_journal_write_us_total"),
            recovery_runs_total: reg.counter("crawler_recovery_runs_total"),
            recovery_records_total: reg.counter("crawler_recovery_records_total"),
            recovery_discarded_records_total: reg
                .counter("crawler_recovery_discarded_records_total"),
            recovery_torn_bytes_total: reg.counter("crawler_recovery_torn_bytes_total"),
            recovery_us: reg.histogram("crawler_recovery_us"),
        }
    }
}

/// The append side of the WAL.
pub struct Journal {
    file: std::fs::File,
    next_seq: u64,
    /// Group-commit buffer: encoded frames not yet flushed.
    pending: Vec<u8>,
    /// `(end offset in pending, frame length)` per buffered record.
    pending_records: Vec<(usize, usize)>,
    /// Durable records (lifetime, including a reopen's `Base` group).
    records_written: u64,
    bytes_written: u64,
    groups_committed: u64,
    /// Fdatasyncs of committed groups (lifetime).
    syncs: u64,
    /// Fdatasync every n-th committed group (group-commit batching).
    sync_every: u64,
    /// Committed groups written since the last fdatasync.
    unsynced_groups: u64,
    kill: Option<KillPlan>,
    killed: bool,
    metrics: Option<JournalMetrics>,
    /// Wall time spent inside the write path (encode, flush, fsync) —
    /// the journal's direct cost, measured by the journal itself.
    spent: std::time::Duration,
}

impl Journal {
    /// Create (truncating) a fresh journal at `path`.
    pub fn create(path: &Path) -> Result<Journal, JournalError> {
        Ok(Journal {
            file: std::fs::File::create(path)?,
            next_seq: 0,
            pending: Vec::new(),
            pending_records: Vec::new(),
            records_written: 0,
            bytes_written: 0,
            groups_committed: 0,
            syncs: 0,
            sync_every: 1,
            unsynced_groups: 0,
            kill: None,
            killed: false,
            metrics: None,
            spent: std::time::Duration::ZERO,
        })
    }

    /// Create a fresh journal whose first group is a compacted `Base`
    /// of `state` — the resume path's "reopen" primitive. The base is
    /// staged in `<path>.tmp` and renamed over the old journal only
    /// once durable, so a crash mid-reopen leaves the old journal (the
    /// only copy of the recovered state) authoritative. It is the
    /// journal's only compaction.
    pub fn create_with_base(path: &Path, state: &ResumeState) -> Result<Journal, JournalError> {
        let t0 = std::time::Instant::now();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut journal = Journal::create(&tmp)?;
        journal.append(&JournalRecord::Base { state: state.clone() })?;
        journal.commit("base")?; // first group of a file is always fsynced
        std::fs::rename(&tmp, path)?;
        journal.file = std::fs::OpenOptions::new().append(true).open(path)?;
        // Charge the whole reopen (including the rename) as write-path
        // time; append/commit above already accrued their share, so
        // overwrite rather than add.
        journal.spent = t0.elapsed();
        Ok(journal)
    }

    pub fn with_kill_plan(mut self, plan: KillPlan) -> Journal {
        self.kill = Some(plan);
        self
    }

    /// Group-commit batching: fdatasync only every `n`-th committed
    /// group (plus the first group of a file, [`Journal::sync`], and
    /// drop). Commit *records* still seal every group, so recovery
    /// semantics are unchanged; what widens is the window of
    /// committed-but-not-yet-durable groups an actual power cut could
    /// lose — which a resume tolerates by re-driving that suffix
    /// through the replay-aware platform.
    pub fn with_sync_every(mut self, n: u64) -> Journal {
        self.sync_every = n.max(1);
        self
    }

    /// Count this journal's writes in `metrics`. What the journal has
    /// already written, synced and spent — a [`Journal::create_with_base`]
    /// reopen's `Base` group — is credited now, so the counters keep
    /// matching [`Journal::records_written`], [`Journal::bytes_written`],
    /// [`Journal::groups_committed`] and [`Journal::time_spent`].
    pub fn with_metrics(mut self, metrics: JournalMetrics) -> Journal {
        metrics.appends_total.add(self.records_written);
        metrics.bytes_total.add(self.bytes_written);
        metrics.groups_total.add(self.groups_committed);
        metrics.syncs_total.add(self.syncs);
        metrics.write_us_total.add(self.spent.as_micros() as u64);
        self.metrics = Some(metrics);
        self
    }

    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    pub fn groups_committed(&self) -> u64 {
        self.groups_committed
    }

    fn encode_frame(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        let payload =
            serde_json::to_string(record).map_err(|e| JournalError::Encode(e.to_string()))?;
        let payload = payload.as_bytes();
        let seq = self.next_seq;
        self.next_seq += 1;
        let crc = crc_of(seq, payload);
        let frame_len = FRAME_HEADER_BYTES + payload.len();
        self.pending.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.pending.extend_from_slice(&seq.to_le_bytes());
        self.pending.extend_from_slice(&crc.to_le_bytes());
        self.pending.extend_from_slice(payload);
        self.pending_records.push((self.pending.len(), frame_len));
        Ok(())
    }

    /// Fold `t0`'s elapsed time into the journal's own cost accounting
    /// (see [`Journal::time_spent`]).
    fn note_spent(&mut self, t0: std::time::Instant) {
        let d = t0.elapsed();
        self.spent += d;
        if let Some(m) = &self.metrics {
            m.write_us_total.add(d.as_micros() as u64);
        }
    }

    /// Wall time this journal has spent in its write path (encoding,
    /// group flushes, fdatasync, the reopen). The direct journaling
    /// cost as seen by the crawl that carries the journal — an *upper*
    /// bound on the overhead vs an un-journaled run, since some of this
    /// time would otherwise overlap network waits. Measured in-process,
    /// it is immune to the host-level scheduling jitter that makes
    /// wall-clock A/B comparisons of two separate runs noisy.
    pub fn time_spent(&self) -> std::time::Duration {
        self.spent
    }

    /// Buffer one record into the current group. Nothing touches the
    /// file until [`Journal::commit`].
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        if self.killed {
            return Err(JournalError::Killed);
        }
        let t0 = std::time::Instant::now();
        let r = self.encode_frame(record);
        self.note_spent(t0);
        r
    }

    /// Seal the current group with a `Commit` record and flush it to
    /// the file in one write + fdatasync.
    pub fn commit(&mut self, op: &str) -> Result<(), JournalError> {
        if self.killed {
            return Err(JournalError::Killed);
        }
        let t0 = std::time::Instant::now();
        let r = self
            .encode_frame(&JournalRecord::Commit { op: op.to_string() })
            .and_then(|()| self.flush_group());
        self.note_spent(t0);
        r
    }

    /// Flush `pending` to the journal file, honoring the kill plan: if
    /// the group contains lifetime record number `after_records`, only
    /// bytes up to (or `torn_bytes` into) that record's frame reach the
    /// file.
    fn flush_group(&mut self) -> Result<(), JournalError> {
        let n = self.pending_records.len() as u64;
        if n == 0 {
            return Ok(());
        }
        if let Some(kill) = self.kill {
            let first = self.records_written + 1;
            let last = self.records_written + n;
            if kill.after_records >= first && kill.after_records <= last {
                let idx = (kill.after_records - first) as usize;
                let (end, frame_len) = self.pending_records[idx];
                let cut = match kill.torn_bytes {
                    Some(t) => end - frame_len + t.min(frame_len),
                    None => end,
                };
                {
                    let mut out = &self.file;
                    out.write_all(&self.pending[..cut])?;
                }
                self.file.sync_data()?;
                self.killed = true;
                return Err(JournalError::Killed);
            }
        }
        {
            let mut out = &self.file;
            out.write_all(&self.pending)?;
        }
        // Batched group commit: the first group of a file (the `Base`
        // on reopen — the file was just truncated, so losing it loses
        // everything) is always made durable; later groups fdatasync
        // every `sync_every`-th commit.
        self.unsynced_groups += 1;
        if self.groups_committed == 0 || self.unsynced_groups >= self.sync_every {
            self.sync_groups()?;
        }
        self.records_written += n;
        self.bytes_written += self.pending.len() as u64;
        self.groups_committed += 1;
        if let Some(m) = &self.metrics {
            m.appends_total.add(n);
            m.bytes_total.add(self.pending.len() as u64);
            m.groups_total.inc();
        }
        self.pending.clear();
        self.pending_records.clear();
        Ok(())
    }

    /// Fdatasync the groups written since the last sync.
    fn sync_groups(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        self.unsynced_groups = 0;
        self.syncs += 1;
        if let Some(m) = &self.metrics {
            m.syncs_total.inc();
        }
        Ok(())
    }

    /// Force any deferred fdatasync (see [`Journal::with_sync_every`]).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        let t0 = std::time::Instant::now();
        let r = if self.unsynced_groups > 0 { self.sync_groups() } else { Ok(()) };
        self.note_spent(t0);
        r
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        // Best-effort: flush any deferred group fdatasync on clean
        // shutdown. A real crash skips Drop by definition — that loss
        // window is exactly what a resume re-drives.
        let _ = self.sync();
    }
}

/// What recovery accepted from a journal file.
#[derive(Debug, Default)]
pub struct RecoveredLog {
    /// Records of all *committed* groups, in order.
    pub records: Vec<JournalRecord>,
    /// Committed groups accepted.
    pub groups: u64,
    /// Valid records seen, including any discarded uncommitted tail.
    pub records_seen: u64,
    /// Valid records after the last `Commit`, discarded.
    pub discarded_records: u64,
    /// Bytes of torn tail discarded.
    pub torn_bytes: u64,
}

enum FrameParse {
    Ok { seq: u64, payload_start: usize, payload_len: usize, next: usize },
    End,
    Bad,
}

fn frame_at(buf: &[u8], off: usize) -> FrameParse {
    if off == buf.len() {
        return FrameParse::End;
    }
    if buf.len() - off < FRAME_HEADER_BYTES {
        return FrameParse::Bad;
    }
    let len = u32::from_le_bytes(buf[off..off + 4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES || off + FRAME_HEADER_BYTES + len > buf.len() {
        return FrameParse::Bad;
    }
    let seq = u64::from_le_bytes(buf[off + 4..off + 12].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(buf[off + 12..off + 16].try_into().expect("4 bytes"));
    let payload_start = off + FRAME_HEADER_BYTES;
    if crc_of(seq, &buf[payload_start..payload_start + len]) != crc {
        return FrameParse::Bad;
    }
    FrameParse::Ok { seq, payload_start, payload_len: len, next: payload_start + len }
}

/// Scan forward from `off + 1` for any byte offset that parses as a
/// valid frame — evidence that a bad frame at `off` is interior
/// corruption rather than a torn tail.
fn scan_ahead(buf: &[u8], off: usize) -> Option<usize> {
    ((off + 1)..buf.len().saturating_sub(FRAME_HEADER_BYTES - 1))
        .find(|&cand| matches!(frame_at(buf, cand), FrameParse::Ok { .. }))
}

/// Recover the longest valid committed prefix from raw journal bytes.
pub fn recover_bytes(buf: &[u8]) -> Result<RecoveredLog, JournalError> {
    let mut off = 0usize;
    let mut expected_seq = 0u64;
    let mut all: Vec<JournalRecord> = Vec::new();
    let mut last_commit: Option<usize> = None;
    let mut torn_bytes = 0u64;
    loop {
        match frame_at(buf, off) {
            FrameParse::End => break,
            FrameParse::Ok { seq, payload_start, payload_len, next } => {
                if seq != expected_seq {
                    return Err(JournalError::SequenceGap {
                        expected: expected_seq,
                        found: seq,
                        offset: off as u64,
                    });
                }
                let payload = &buf[payload_start..payload_start + payload_len];
                let text = std::str::from_utf8(payload)
                    .map_err(|e| JournalError::Decode { seq, detail: e.to_string() })?;
                let record: JournalRecord = serde_json::from_str(text)
                    .map_err(|e| JournalError::Decode { seq, detail: e.to_string() })?;
                if matches!(record, JournalRecord::Commit { .. }) {
                    last_commit = Some(all.len());
                }
                all.push(record);
                expected_seq += 1;
                off = next;
            }
            FrameParse::Bad => {
                if let Some(next_valid) = scan_ahead(buf, off) {
                    return Err(JournalError::InteriorCorruption {
                        offset: off as u64,
                        next_valid_offset: next_valid as u64,
                    });
                }
                torn_bytes = (buf.len() - off) as u64;
                break;
            }
        }
    }
    let records_seen = all.len() as u64;
    let committed = match last_commit {
        Some(idx) => {
            all.truncate(idx + 1);
            all
        }
        None => Vec::new(),
    };
    let discarded_records = records_seen - committed.len() as u64;
    let groups =
        committed.iter().filter(|r| matches!(r, JournalRecord::Commit { .. })).count() as u64;
    Ok(RecoveredLog { records: committed, groups, records_seen, discarded_records, torn_bytes })
}

/// Recover from a journal file. A missing file is an empty log (the
/// crawl never journaled anything durable).
pub fn recover(path: &Path) -> Result<RecoveredLog, JournalError> {
    let buf = match std::fs::read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    recover_bytes(&buf)
}

/// Recover with metrics and timing (the production resume path).
pub fn recover_instrumented(
    path: &Path,
    metrics: &JournalMetrics,
) -> Result<RecoveredLog, JournalError> {
    let started = std::time::Instant::now();
    let result = recover(path);
    metrics.recovery_runs_total.inc();
    metrics.recovery_us.record(started.elapsed().as_micros() as u64);
    if let Ok(log) = &result {
        metrics.recovery_records_total.add(log.records.len() as u64);
        metrics.recovery_discarded_records_total.add(log.discarded_records);
        metrics.recovery_torn_bytes_total.add(log.torn_bytes);
    }
    result
}

/// Fold committed records into the resume state they describe. Returns
/// `None` when the log has no committed groups (nothing to resume) and
/// an error when the first committed record is not a `Base` — a journal
/// always begins with one.
pub fn fold_state(records: &[JournalRecord]) -> Result<Option<ResumeState>, JournalError> {
    let Some(first) = records.first() else { return Ok(None) };
    if !matches!(first, JournalRecord::Base { .. }) {
        return Err(JournalError::Decode {
            seq: 0,
            detail: format!("journal does not begin with a Base record: {first:?}"),
        });
    }
    let mut state = ResumeState::default();
    for record in records {
        state.apply(record.clone());
    }
    Ok(Some(state))
}

/// Payload digest of a resume state (diagnostics / test assertions).
pub fn state_digest(state: &ResumeState) -> u64 {
    let value = serde_json::to_value(state).expect("resume state serializes");
    fnv1a_chain(FNV_OFFSET, value.render_compact().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hsp-journal-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(name)
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Base { state: ResumeState { label: "t".into(), ..Default::default() } },
            JournalRecord::Commit { op: "base".into() },
            JournalRecord::SeedsCollected {
                school: SchoolId(3),
                seeds: vec![UserId(1), UserId(9)],
            },
            JournalRecord::Lane { lane: LaneState { index: 0, ..Default::default() } },
            JournalRecord::Sched { sched: SchedState::default() },
            JournalRecord::Commit { op: "collect_seeds".into() },
            JournalRecord::FriendsCommitted {
                uid: UserId(9),
                friends: Some(vec![UserId(1)]),
                partial: false,
                gen: Some(4),
            },
            JournalRecord::Commit { op: "prefetch_friends".into() },
        ]
    }

    /// Append `records` through the group API (one group per Commit).
    fn write_log(path: &Path, records: &[JournalRecord]) -> Journal {
        let mut journal = Journal::create(path).expect("create");
        for r in records {
            match r {
                JournalRecord::Commit { op } => journal.commit(op).expect("commit"),
                other => journal.append(other).expect("append"),
            }
        }
        journal
    }

    #[test]
    fn default_pacing_is_not_journaled() {
        let naive = LaneState { index: 3, ..Default::default() };
        let text = serde_json::to_string(&naive).unwrap();
        assert!(!text.contains("pacing"), "naive lanes keep their journal bytes: {text}");
        let back: LaneState = serde_json::from_str(&text).unwrap();
        assert_eq!(back, naive);
        let pacing = PacingState {
            draws: 9,
            profiles: 4,
            revisit: Some(UserId(2)),
            widen_factor: 4,
            calm_streak: 1,
        };
        let adaptive = LaneState { pacing, ..naive };
        let back: LaneState =
            serde_json::from_str(&serde_json::to_string(&adaptive).unwrap()).unwrap();
        assert_eq!(back.pacing, pacing);
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn round_trips_groups() {
        let path = tmp_path("round_trip.wal");
        let records = sample_records();
        write_log(&path, &records);
        let log = recover(&path).expect("recover");
        assert_eq!(log.records, records);
        assert_eq!(log.groups, 3);
        assert_eq!(log.discarded_records, 0);
        assert_eq!(log.torn_bytes, 0);
        let state = fold_state(&log.records).expect("fold").expect("state");
        assert_eq!(state.seeds[&SchoolId(3)], vec![UserId(1), UserId(9)]);
        assert_eq!(state.friends[&UserId(9)], Some(vec![UserId(1)]));
        assert_eq!(state.friends_gen[&UserId(9)], 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn batched_sync_changes_nothing_recoverable() {
        // Group-commit batching only defers fdatasync; the on-file
        // byte stream (and thus recovery) is identical, and drop
        // flushes the deferred sync.
        let eager = tmp_path("sync_eager.wal");
        let batched = tmp_path("sync_batched.wal");
        let records = sample_records();
        write_log(&eager, &records);
        {
            let mut journal = Journal::create(&batched).expect("create").with_sync_every(64);
            for r in &records {
                match r {
                    JournalRecord::Commit { op } => journal.commit(op).expect("commit"),
                    other => journal.append(other).expect("append"),
                }
            }
            assert_eq!(journal.groups_committed(), 3);
        }
        assert_eq!(
            std::fs::read(&eager).expect("eager bytes"),
            std::fs::read(&batched).expect("batched bytes")
        );
        let log = recover(&batched).expect("recover");
        assert_eq!(log.records, records);
        let _ = std::fs::remove_file(&eager);
        let _ = std::fs::remove_file(&batched);
    }

    #[test]
    fn missing_file_is_empty_log() {
        let log = recover(&tmp_path("never_written.wal")).expect("recover");
        assert!(log.records.is_empty());
        assert!(fold_state(&log.records).expect("fold").is_none());
    }

    #[test]
    fn torn_tail_is_discarded_cleanly() {
        let path = tmp_path("torn.wal");
        write_log(&path, &sample_records());
        let full = std::fs::read(&path).expect("read");
        let whole = recover_bytes(&full).expect("whole");
        // Chop the last frame mid-payload: the final group loses its
        // Commit, so recovery falls back to the previous group.
        let cut = full.len() - 7;
        let log = recover_bytes(&full[..cut]).expect("recover torn");
        assert!(log.torn_bytes > 0);
        assert!(log.records.len() < whole.records.len());
        assert!(matches!(log.records.last(), Some(JournalRecord::Commit { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_corruption_is_refused() {
        let path = tmp_path("interior.wal");
        write_log(&path, &sample_records());
        let mut buf = std::fs::read(&path).expect("read");
        // Flip a byte in the middle of the SECOND frame's payload:
        // valid frames follow, so recovery must refuse, not skip.
        let first_len =
            u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize + FRAME_HEADER_BYTES;
        buf[first_len + FRAME_HEADER_BYTES + 2] ^= 0x40;
        match recover_bytes(&buf) {
            Err(JournalError::InteriorCorruption { offset, next_valid_offset }) => {
                assert_eq!(offset as usize, first_len);
                assert!(next_valid_offset > offset);
            }
            other => panic!("expected InteriorCorruption, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sequence_gap_is_refused() {
        let path = tmp_path("gap.wal");
        write_log(&path, &sample_records());
        let buf = std::fs::read(&path).expect("read");
        // Splice out the second frame entirely (a valid-CRC gap).
        let first_len =
            u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize + FRAME_HEADER_BYTES;
        let second_len = u32::from_le_bytes(buf[first_len..first_len + 4].try_into().unwrap())
            as usize
            + FRAME_HEADER_BYTES;
        let mut spliced = buf[..first_len].to_vec();
        spliced.extend_from_slice(&buf[first_len + second_len..]);
        match recover_bytes(&spliced) {
            Err(JournalError::SequenceGap { expected: 1, found: 2, .. }) => {}
            other => panic!("expected SequenceGap, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn uncommitted_tail_records_are_discarded() {
        let path = tmp_path("uncommitted.wal");
        let mut journal = write_log(&path, &sample_records());
        // Append events without committing, then flush them raw by
        // faking a commit-less write (simulate: records buffered only —
        // nothing hits the file, so recovery sees the committed log).
        journal
            .append(&JournalRecord::SeedsCollected { school: SchoolId(5), seeds: vec![] })
            .expect("append");
        drop(journal);
        let log = recover(&path).expect("recover");
        assert_eq!(log.records.len(), sample_records().len());
        assert_eq!(log.discarded_records, 0, "buffered records never reached the file");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_plan_cuts_exactly_after_record_n() {
        let path = tmp_path("kill.wal");
        let mut journal =
            Journal::create(&path).expect("create").with_kill_plan(KillPlan::after(3));
        journal.append(&sample_records()[0]).expect("append");
        journal.commit("base").expect("commit");
        assert_eq!(journal.records_written(), 2);
        // Group 2 holds records 3..=4; the kill fires while flushing it.
        journal
            .append(&JournalRecord::SeedsCollected { school: SchoolId(1), seeds: vec![UserId(2)] })
            .expect("append");
        match journal.commit("collect_seeds") {
            Err(JournalError::Killed) => {}
            other => panic!("expected Killed, got {other:?}"),
        }
        // Everything after the kill keeps failing — the process is dead.
        assert!(matches!(
            journal.append(&JournalRecord::Commit { op: "x".into() }),
            Err(JournalError::Killed)
        ));
        // Record 3 reached the file whole but its group has no Commit:
        // recovery falls back to the base group.
        let log = recover(&path).expect("recover");
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.discarded_records, 1);
        assert!(matches!(log.records[0], JournalRecord::Base { .. }));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_kill_leaves_detectable_torn_tail() {
        let path = tmp_path("torn_kill.wal");
        let mut journal =
            Journal::create(&path).expect("create").with_kill_plan(KillPlan::torn(3, 9));
        journal.append(&sample_records()[0]).expect("append");
        journal.commit("base").expect("commit");
        journal
            .append(&JournalRecord::SeedsCollected { school: SchoolId(1), seeds: vec![UserId(2)] })
            .expect("append");
        assert!(matches!(journal.commit("collect_seeds"), Err(JournalError::Killed)));
        let log = recover(&path).expect("recover");
        assert_eq!(log.records.len(), 2, "only the base group survives");
        assert_eq!(log.torn_bytes, 9, "the torn prefix of record 3 is discarded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_folds_to_the_same_state_and_stays_appendable() {
        let path = tmp_path("reopen.wal");
        drop(write_log(&path, &sample_records()));
        let log = recover(&path).expect("recover");
        let state = fold_state(&log.records).expect("fold").expect("state");
        let mut journal = Journal::create_with_base(&path, &state).expect("reopen");
        assert!(!path.with_extension("wal.tmp").exists());
        // The reopened journal is one Base group folding to the same state.
        let reopened = recover(&path).expect("recover reopened");
        assert_eq!(reopened.groups, 1);
        let refolded = fold_state(&reopened.records).expect("fold").expect("state");
        assert_eq!(state_digest(&refolded), state_digest(&state));
        // And stays appendable.
        journal
            .append(&JournalRecord::SeedsCollected { school: SchoolId(7), seeds: vec![UserId(2)] })
            .expect("append");
        journal.commit("collect_seeds").expect("commit");
        let after = recover(&path).expect("recover after append");
        assert_eq!(after.groups, 2);
        let folded = fold_state(&after.records).expect("fold").expect("state");
        assert_eq!(folded.seeds[&SchoolId(7)], vec![UserId(2)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_crashed_reopen_leaves_the_old_journal_authoritative() {
        let path = tmp_path("reopen_crash.wal");
        let tmp = path.with_extension("wal.tmp");
        drop(write_log(&path, &sample_records()));
        let before = recover(&path).expect("recover");
        let state = fold_state(&before.records).expect("fold").expect("state");
        let staged = tmp_path("reopen_crash_staged.wal");
        drop(Journal::create_with_base(&staged, &state).expect("stage"));
        let base = std::fs::read(&staged).expect("staged bytes");
        // A reopen that died before its rename leaves `<path>.tmp`
        // behind: whole (stale) or cut mid-frame (torn).
        for leftover in [&base[..], &base[..base.len() / 2]] {
            drop(write_log(&path, &sample_records()));
            std::fs::write(&tmp, leftover).expect("leftover tmp");
            let recovered = recover(&path).expect("recover beside the leftover");
            assert_eq!(recovered.records, before.records, "the old journal stays authoritative");
            // The restarted reopen replaces the leftover.
            drop(Journal::create_with_base(&path, &state).expect("reopen over the leftover"));
            assert!(!tmp.exists());
            let reopened = recover(&path).expect("recover reopened");
            let refolded = fold_state(&reopened.records).expect("fold").expect("state");
            assert_eq!(state_digest(&refolded), state_digest(&state));
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&staged);
    }

    #[test]
    fn write_us_counter_credits_the_reopen() {
        let path = tmp_path("reopen_metrics.wal");
        drop(write_log(&path, &sample_records()));
        let log = recover(&path).expect("recover");
        let state = fold_state(&log.records).expect("fold").expect("state");
        let metrics = JournalMetrics::register(&Registry::new());
        let mut journal =
            Journal::create_with_base(&path, &state).expect("reopen").with_metrics(metrics.clone());
        journal.append(&JournalRecord::Sched { sched: SchedState::default() }).expect("append");
        journal.commit("sched").expect("commit");
        let spent_us = journal.time_spent().as_micros() as u64;
        let counted = metrics.write_us_total.get();
        // The reopen, the append and the commit each truncate to whole
        // microseconds on their own.
        assert!(
            counted <= spent_us && spent_us - counted <= 2,
            "{counted} us counted vs {spent_us} us spent"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_attached_after_a_reopen_count_its_base_group() {
        let path = tmp_path("reopen_counters.wal");
        drop(write_log(&path, &sample_records()));
        let log = recover(&path).expect("recover");
        let state = fold_state(&log.records).expect("fold").expect("state");
        let metrics = JournalMetrics::register(&Registry::new());
        let mut journal =
            Journal::create_with_base(&path, &state).expect("reopen").with_metrics(metrics.clone());
        journal.append(&JournalRecord::Sched { sched: SchedState::default() }).expect("append");
        journal.commit("sched").expect("commit");
        assert_eq!(journal.records_written(), 4, "Base + Commit, then Sched + Commit");
        assert_eq!(metrics.appends_total.get(), journal.records_written());
        assert_eq!(metrics.bytes_total.get(), journal.bytes_written());
        assert_eq!(journal.bytes_written(), std::fs::metadata(&path).expect("size").len());
        assert_eq!(metrics.groups_total.get(), journal.groups_committed());
        assert_eq!(metrics.syncs_total.get(), 2, "one fdatasync per group at sync_every = 1");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn apply_keeps_circles_sorted_and_partial_lists_exact() {
        let mut state = ResumeState::default();
        for (uid, incoming) in [(9, true), (2, false), (9, false), (2, true)] {
            state.apply(JournalRecord::CirclesCommitted {
                uid: UserId(uid),
                incoming,
                members: None,
            });
        }
        state.apply(JournalRecord::CirclesCommitted {
            uid: UserId(9),
            incoming: false,
            members: Some(vec![UserId(1)]),
        });
        let keys: Vec<(u64, bool)> = state.circles.iter().map(|c| (c.uid.0, c.incoming)).collect();
        assert_eq!(keys, [(2, false), (2, true), (9, false), (9, true)]);
        assert_eq!(state.circles_of(UserId(9), false), Some(&Some(vec![UserId(1)])));
        assert_eq!(state.circles_of(UserId(3), false), None);
        let friends = |partial| JournalRecord::FriendsCommitted {
            uid: UserId(4),
            friends: Some(vec![]),
            partial,
            gen: None,
        };
        state.apply(friends(true));
        assert!(state.incomplete.contains(&UserId(4)));
        state.apply(friends(false));
        assert!(state.incomplete.is_empty(), "a whole list replaces a partial one");
    }
}

#[cfg(test)]
mod framing_proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_ids() -> impl Strategy<Value = Vec<UserId>> {
        proptest::collection::vec(any::<u64>(), 0..6)
            .prop_map(|ids| ids.into_iter().map(UserId).collect())
    }

    fn arb_profile() -> impl Strategy<Value = ScrapedProfile> {
        use crate::scrape::{ScrapedEduKind, ScrapedEducation};
        use hsp_graph::{CityId, Date};
        let education = (any::<u32>(), 0u8..3, proptest::option::of(any::<i32>())).prop_map(
            |(school, kind, grad_year)| ScrapedEducation {
                school: SchoolId(school),
                kind: [
                    ScrapedEduKind::HighSchool,
                    ScrapedEduKind::College,
                    ScrapedEduKind::GraduateSchool,
                ][kind as usize],
                grad_year,
            },
        );
        (
            (
                proptest::option::of(any::<u64>()),
                "[ -~]{0,12}",
                proptest::option::of("[a-z]{1,6}"),
                proptest::collection::vec(any::<u32>(), 0..3),
                proptest::collection::vec(education, 0..3),
                proptest::option::of(any::<u32>()),
                proptest::option::of(any::<u32>()),
                proptest::option::of((1900i32..2030, 1u8..=12, 1u8..=28)),
            ),
            (
                proptest::option::of(any::<u32>()),
                proptest::option::of(any::<u32>()),
                arb_ids(),
                proptest::option::of(any::<u64>()),
                any::<u8>(),
            ),
        )
            .prop_map(
                |(
                    (uid, name, gender, networks, education, city, hometown, birthday),
                    (photos_shared, wall_posts, wall_posters, generation, flags),
                )| ScrapedProfile {
                    uid: uid.map(UserId),
                    name,
                    gender,
                    has_photo: flags & 1 != 0,
                    networks: networks.into_iter().map(SchoolId).collect(),
                    education,
                    current_city: city.map(CityId),
                    hometown: hometown.map(CityId),
                    relationship: flags & 2 != 0,
                    interested_in: flags & 4 != 0,
                    birthday: birthday.map(|(y, m, d)| Date::ymd(y, m, d)),
                    photos_shared,
                    wall_posts,
                    wall_posters,
                    has_contact_info: flags & 8 != 0,
                    friend_list_visible: flags & 16 != 0,
                    message_button: flags & 32 != 0,
                    generation,
                    tombstoned: flags & 64 != 0,
                },
            )
    }

    fn arb_lane() -> impl Strategy<Value = LaneState> {
        (
            (any::<u64>(), "[a-z0-9-]{1,8}", any::<bool>(), any::<u64>(), any::<u64>()),
            proptest::collection::vec(("[a-z]{1,8}", any::<u32>(), any::<bool>()), 0..3),
            (
                proptest::collection::vec(("[a-z]{1,6}", "[ -~]{0,8}"), 0..2),
                any::<u64>(),
                any::<u64>(),
            ),
            (
                any::<u64>(),
                any::<u64>(),
                proptest::option::of(any::<u64>()),
                0u64..64,
                any::<u32>(),
            ),
        )
            .prop_map(
                |(
                    (index, username, suspended, clock_ms, requests),
                    breakers,
                    (cookies, attempt_seq, jitter_state),
                    (draws, profiles, revisit, widen_factor, calm_streak),
                )| LaneState {
                    index: index % 8,
                    password: format!("{username}-pw"),
                    username,
                    suspended,
                    effort: Effort {
                        profile_requests: requests,
                        captcha_virtual_ms: requests / 3,
                        ..Effort::default()
                    },
                    clock_ms,
                    breakers: breakers
                        .into_iter()
                        .map(|(ep, consecutive, open)| (ep, BreakerState { consecutive, open }))
                        .collect(),
                    trace_ordinal: requests ^ clock_ms,
                    transport: TransportState { cookies, attempt_seq, jitter_state },
                    pacing: PacingState {
                        draws,
                        profiles,
                        revisit: revisit.map(UserId),
                        widen_factor,
                        calm_streak,
                    },
                },
            )
    }

    fn arb_sched() -> impl Strategy<Value = SchedState> {
        (any::<u64>(), any::<u64>(), 0u64..8, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(rr, modeled_wall_ms, recruited, stale_refetches, retries, sheds)| SchedState {
                rr,
                modeled_wall_ms,
                recruited,
                stale_refetches,
                retry_stats: RetryStatsSnapshot {
                    retries,
                    sheds,
                    throttled: retries ^ sheds,
                    ..RetryStatsSnapshot::default()
                },
            },
        )
    }

    fn arb_state() -> impl Strategy<Value = ResumeState> {
        (
            "[a-z]{1,6}",
            (any::<u32>(), arb_ids()),
            (any::<u64>(), arb_profile()),
            (any::<u64>(), proptest::option::of(arb_ids()), any::<u64>()),
            arb_lane(),
            arb_sched(),
        )
            .prop_map(
                |(label, (school, seeds), (p, profile), (f, friends, gen), lane, sched)| {
                    let mut state =
                        ResumeState { label, lanes: vec![lane], sched, ..Default::default() };
                    state.seeds.insert(SchoolId(school), seeds);
                    state.profiles.insert(UserId(p), profile);
                    state.friends.insert(UserId(f), friends);
                    state.friends_gen.insert(UserId(f), gen);
                    state.incomplete.insert(UserId(f));
                    state.tombstoned.insert(UserId(p));
                    state.circles.push(CirclesEntry {
                        uid: UserId(f),
                        incoming: gen % 2 == 0,
                        members: None,
                    });
                    state
                },
            )
    }

    /// Draws every record variant.
    fn arb_record() -> impl Strategy<Value = JournalRecord> {
        prop_oneof![
            arb_state().prop_map(|state| JournalRecord::Base { state }),
            (any::<u32>(), arb_ids()).prop_map(|(s, seeds)| JournalRecord::SeedsCollected {
                school: SchoolId(s),
                seeds,
            }),
            (any::<u64>(), arb_profile()).prop_map(|(u, profile)| {
                JournalRecord::ProfileCommitted { uid: UserId(u), profile }
            }),
            (
                any::<u64>(),
                proptest::option::of(arb_ids()),
                any::<bool>(),
                proptest::option::of(any::<u64>())
            )
                .prop_map(|(u, friends, partial, gen)| {
                    JournalRecord::FriendsCommitted { uid: UserId(u), friends, partial, gen }
                }),
            (any::<u64>(), any::<bool>(), proptest::option::of(arb_ids())).prop_map(
                |(u, incoming, members)| JournalRecord::CirclesCommitted {
                    uid: UserId(u),
                    incoming,
                    members,
                }
            ),
            arb_lane().prop_map(|lane| JournalRecord::Lane { lane }),
            arb_sched().prop_map(|sched| JournalRecord::Sched { sched }),
            "[a-z_]{1,12}".prop_map(|op| JournalRecord::Commit { op }),
        ]
    }

    /// Arbitrary event sequence pre-chunked into committed groups.
    fn arb_log() -> impl Strategy<Value = Vec<JournalRecord>> {
        proptest::collection::vec(
            (proptest::collection::vec(arb_record(), 0..4), "[a-z]{1,8}"),
            1..5,
        )
        .prop_map(|groups| {
            let mut records = Vec::new();
            for (events, op) in groups {
                records.extend(events);
                records.push(JournalRecord::Commit { op });
            }
            records
        })
    }

    fn encode_log(records: &[JournalRecord]) -> Vec<u8> {
        let dir = std::env::temp_dir().join("hsp-journal-proptest");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let name = fnv1a_chain(FNV_OFFSET, format!("{records:?}").as_bytes());
        let path = dir.join(format!("prop-{name:x}.wal"));
        let mut journal = Journal::create(&path).expect("create");
        for r in records {
            match r {
                JournalRecord::Commit { op } => journal.commit(op).expect("commit"),
                other => journal.append(other).expect("append"),
            }
        }
        let buf = std::fs::read(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        buf
    }

    /// Recovery must only ever return a prefix of what was written:
    /// a "wrong record" (anything not literally in the original
    /// sequence, in order) is the one unacceptable outcome.
    fn assert_clean_prefix(original: &[JournalRecord], recovered: &RecoveredLog) {
        assert!(recovered.records.len() <= original.len());
        assert_eq!(
            recovered.records,
            original[..recovered.records.len()],
            "recovery invented or reordered records"
        );
        if !recovered.records.is_empty() {
            assert!(
                matches!(recovered.records.last(), Some(JournalRecord::Commit { .. })),
                "recovered log must end at a group boundary"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn crc_of_is_the_crc_of_seq_then_payload(
            seq in any::<u64>(),
            payload in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut framed = seq.to_le_bytes().to_vec();
            framed.extend_from_slice(&payload);
            prop_assert_eq!(crc_of(seq, &payload), crc32(&framed));
        }

        #[test]
        fn round_trip_arbitrary_logs(records in arb_log()) {
            let buf = encode_log(&records);
            let log = recover_bytes(&buf).expect("clean log recovers");
            prop_assert_eq!(&log.records, &records);
            prop_assert_eq!(log.torn_bytes, 0);
            prop_assert_eq!(log.discarded_records, 0);
        }

        #[test]
        fn truncation_never_yields_wrong_records(records in arb_log(), frac in 0.0f64..1.0) {
            let buf = encode_log(&records);
            let cut = (buf.len() as f64 * frac) as usize;
            match recover_bytes(&buf[..cut]) {
                Ok(log) => assert_clean_prefix(&records, &log),
                // Truncation can only tear the tail; typed errors are
                // acceptable, silent garbage is not.
                Err(JournalError::InteriorCorruption { .. })
                | Err(JournalError::SequenceGap { .. })
                | Err(JournalError::Decode { .. }) => {}
                Err(e) => panic!("unexpected recovery error: {e}"),
            }
        }

        #[test]
        fn single_byte_corruption_never_yields_wrong_records(
            records in arb_log(),
            frac in 0.0f64..1.0,
            flip in 1u8..=255,
        ) {
            let mut buf = encode_log(&records);
            prop_assume!(!buf.is_empty());
            let offset = ((buf.len() - 1) as f64 * frac) as usize;
            buf[offset] ^= flip;
            match recover_bytes(&buf) {
                Ok(log) => assert_clean_prefix(&records, &log),
                Err(JournalError::InteriorCorruption { .. })
                | Err(JournalError::SequenceGap { .. })
                | Err(JournalError::Decode { .. }) => {}
                Err(e) => panic!("unexpected recovery error: {e}"),
            }
        }
    }

    /// Exhaustive single-byte corruption at EVERY offset for one small
    /// log (the proptest samples; this nails the boundary cases).
    #[test]
    fn corruption_at_every_offset_is_prefix_or_error() {
        let records = vec![
            JournalRecord::SeedsCollected { school: SchoolId(1), seeds: vec![UserId(3)] },
            JournalRecord::Commit { op: "seeds".into() },
            JournalRecord::Sched { sched: SchedState { rr: 4, ..SchedState::default() } },
            JournalRecord::Commit { op: "msg".into() },
        ];
        let buf = encode_log(&records);
        for offset in 0..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[offset] ^= 0x20;
            match recover_bytes(&corrupt) {
                Ok(log) => assert_clean_prefix(&records, &log),
                Err(JournalError::InteriorCorruption { .. })
                | Err(JournalError::SequenceGap { .. })
                | Err(JournalError::Decode { .. }) => {}
                Err(e) => panic!("offset {offset}: unexpected recovery error: {e}"),
            }
        }
    }
}
