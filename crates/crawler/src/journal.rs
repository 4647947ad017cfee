//! Durable crawl journal: a length-prefixed, CRC32-framed, monotonically
//! sequenced append-only WAL of per-lane crawl events, with group-commit
//! batching and atomic snapshot compaction.
//!
//! The paper's crawl ran for weeks from commodity machines; the
//! reproduction's attacker must therefore be **crash-only**: killing the
//! process at any instant — including mid-`write(2)`, leaving a torn
//! frame — and restarting it must reproduce the uninterrupted run
//! bit-for-bit. The journal is the attacker's only durable state:
//!
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
//! - **Compaction**: a fresh journal holding one `Base` snapshot of the
//!   folded state is written to `<path>.tmp`, fsynced, then renamed
//!   over the live journal — the old journal stays authoritative until
//!   the compacted file is durable.
//!
//! Kill-point injection ([`KillPlan`]) deterministically simulates the
//! crash at flush time: bytes up to (or partway into) the N-th record
//! reach the file, everything later in the group is lost, and the
//! journal reports [`JournalError::Killed`] — the in-process analogue
//! of `kill -9` between two sectors of a group write.

use crate::effort::Effort;
use crate::scrape::ScrapedProfile;
use crate::snapshot::fnv1a;
use hsp_graph::{SchoolId, UserId};
use hsp_obs::{Counter, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
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

/// IEEE CRC32 (table-based; no external crate).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

fn crc_of(seq: u64, payload: &[u8]) -> u32 {
    let mut framed = Vec::with_capacity(8 + payload.len());
    framed.extend_from_slice(&seq.to_le_bytes());
    framed.extend_from_slice(payload);
    crc32(&framed)
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
/// across compactions). Bytes up to the end of that record's frame —
/// or only `torn_bytes` of it, simulating a torn sector write — reach
/// the file; the rest of the group is lost.
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

/// Serializable transport state (mirrors `hsp_http::TransportState`,
/// which stays serde-free — hsp-http has no serde dependency).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TransportJournalState {
    pub cookies: Vec<(String, String)>,
    pub attempt_seq: u64,
    pub jitter_state: u64,
}

impl TransportJournalState {
    pub fn from_transport(t: &hsp_http::TransportState) -> TransportJournalState {
        TransportJournalState {
            cookies: t.cookies.clone(),
            attempt_seq: t.attempt_seq,
            jitter_state: t.jitter_state,
        }
    }

    pub fn to_transport(&self) -> hsp_http::TransportState {
        hsp_http::TransportState {
            cookies: self.cookies.clone(),
            attempt_seq: self.attempt_seq,
            jitter_state: self.jitter_state,
        }
    }
}

/// Serializable retry-stats counters (mirrors
/// `hsp_http::RetryStatsSnapshot`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RetryStatsState {
    pub retries: u64,
    pub rate_limited: u64,
    pub server_errors: u64,
    pub sheds: u64,
    pub resets: u64,
    pub deadlines_exceeded: u64,
    pub backoff_virtual_ms: u64,
    pub edge_limited: u64,
    pub fault_rate_limited: u64,
    pub throttled: u64,
    pub stale_refetches: u64,
    pub tombstones: u64,
}

impl RetryStatsState {
    pub fn from_stats(s: &hsp_http::RetryStatsSnapshot) -> RetryStatsState {
        RetryStatsState {
            retries: s.retries,
            rate_limited: s.rate_limited,
            server_errors: s.server_errors,
            sheds: s.sheds,
            resets: s.resets,
            deadlines_exceeded: s.deadlines_exceeded,
            backoff_virtual_ms: s.backoff_virtual_ms,
            edge_limited: s.edge_limited,
            fault_rate_limited: s.fault_rate_limited,
            throttled: s.throttled,
            stale_refetches: s.stale_refetches,
            tombstones: s.tombstones,
        }
    }

    pub fn to_stats(&self) -> hsp_http::RetryStatsSnapshot {
        hsp_http::RetryStatsSnapshot {
            retries: self.retries,
            rate_limited: self.rate_limited,
            server_errors: self.server_errors,
            sheds: self.sheds,
            resets: self.resets,
            deadlines_exceeded: self.deadlines_exceeded,
            backoff_virtual_ms: self.backoff_virtual_ms,
            edge_limited: self.edge_limited,
            fault_rate_limited: self.fault_rate_limited,
            throttled: self.throttled,
            stale_refetches: self.stale_refetches,
            tombstones: self.tombstones,
        }
    }
}

/// One account lane's full resume state at a commit boundary.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LaneState {
    /// Position in the scheduler's account vector (enrollment order).
    pub index: u64,
    pub username: String,
    pub password: String,
    pub suspended: bool,
    pub effort: Effort,
    /// Fallback local timeline (clock-less seats).
    pub local_ms: u64,
    /// The lane's private [`hsp_obs::VirtualClock`] position.
    pub clock_ms: u64,
    /// Per-endpoint breaker states, keyed by endpoint label.
    pub breakers: BTreeMap<String, BreakerState>,
    /// Next trace ordinal on this lane.
    pub trace_ordinal: u64,
    pub transport: TransportJournalState,
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
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedState {
    pub rr: u64,
    pub modeled_wall_ms: u64,
    pub recruited: u64,
    pub stale_refetches: u64,
    pub retry_stats: RetryStatsState,
}

/// One circles-cache entry (`(uid, incoming) -> members`), kept as a
/// struct list rather than a tuple-keyed map for serialization.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CirclesEntry {
    pub uid: UserId,
    pub incoming: bool,
    pub members: Option<Vec<UserId>>,
}

/// Everything a killed crawler needs to resume bit-identically: caches,
/// world-generation stamps, per-lane state, scheduler state.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ResumeState {
    pub label: String,
    pub seeds: BTreeMap<SchoolId, Vec<UserId>>,
    pub profiles: BTreeMap<UserId, ScrapedProfile>,
    pub friends: BTreeMap<UserId, Option<Vec<UserId>>>,
    pub circles: Vec<CirclesEntry>,
    pub incomplete: Vec<UserId>,
    pub tombstoned: Vec<UserId>,
    /// `x-world-gen` stamp each committed friend list was read at —
    /// restored so resumed pair-reconciliation sees the pre-crash view.
    pub friends_gen: BTreeMap<UserId, u64>,
    pub lanes: Vec<LaneState>,
    pub sched: SchedState,
}

/// One journal record. Fine-grained events carry the crawl's data; the
/// per-group `Lanes`/`Sched` records carry the (small) mutable machine
/// state; `Commit` seals a group; `Base` is a compacted snapshot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Compaction base: the folded state of everything before it.
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
    MessageSent {
        uid: UserId,
        accepted: bool,
    },
    /// A lane was suspended by the platform since the previous group.
    LaneSuspended {
        index: u64,
        username: String,
    },
    /// A lane was recruited (fleet escalation) since the previous group.
    LaneRecruited {
        index: u64,
        username: String,
    },
    /// Full per-lane state at this commit boundary (fleets are small).
    Lanes {
        lanes: Vec<LaneState>,
    },
    /// Delta: one lane's state at this commit boundary. The scheduler
    /// emits these instead of a full [`JournalRecord::Lanes`] snapshot
    /// when only some lanes moved since the previous group — on a
    /// send-message group that's one lane out of the whole fleet, which
    /// is most of the journal's serialization volume.
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
    pub compactions_total: Arc<Counter>,
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
            compactions_total: reg.counter("crawler_journal_compactions_total"),
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
    path: PathBuf,
    next_seq: u64,
    /// Group-commit buffer: encoded frames not yet flushed.
    pending: Vec<u8>,
    /// `(end offset in pending, frame length)` per buffered record.
    pending_records: Vec<(usize, usize)>,
    /// Durable records (lifetime, across compactions).
    records_written: u64,
    bytes_written: u64,
    groups_committed: u64,
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
            path: path.to_path_buf(),
            next_seq: 0,
            pending: Vec::new(),
            pending_records: Vec::new(),
            records_written: 0,
            bytes_written: 0,
            groups_committed: 0,
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
    /// only copy of the recovered state) authoritative.
    pub fn create_with_base(path: &Path, state: &ResumeState) -> Result<Journal, JournalError> {
        let t0 = std::time::Instant::now();
        let mut tmp_name = path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut journal = Journal::create(&tmp)?;
        journal.append(&JournalRecord::Base { state: state.clone() })?;
        journal.commit("base")?; // first group of a file is always fsynced
        std::fs::rename(&tmp, path)?;
        journal.path = path.to_path_buf();
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
    /// group (plus the first group of a file, [`Journal::sync`],
    /// [`Journal::compact`], and drop). Commit *records* still seal
    /// every group, so recovery semantics are unchanged; what widens is
    /// the window of committed-but-not-yet-durable groups an actual
    /// power cut could lose — which a resume tolerates by re-driving
    /// that suffix through the replay-aware platform.
    pub fn with_sync_every(mut self, n: u64) -> Journal {
        self.sync_every = n.max(1);
        self
    }

    pub fn with_metrics(mut self, metrics: JournalMetrics) -> Journal {
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
    /// group flushes, fdatasync, compaction). The direct journaling
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
            self.file.sync_data()?;
            self.unsynced_groups = 0;
            if let Some(m) = &self.metrics {
                m.syncs_total.inc();
            }
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

    /// Force any deferred fdatasync (see [`Journal::with_sync_every`]).
    pub fn sync(&mut self) -> Result<(), JournalError> {
        let t0 = std::time::Instant::now();
        let r = self.sync_inner();
        self.note_spent(t0);
        r
    }

    fn sync_inner(&mut self) -> Result<(), JournalError> {
        if self.unsynced_groups > 0 {
            self.file.sync_data()?;
            self.unsynced_groups = 0;
            if let Some(m) = &self.metrics {
                m.syncs_total.inc();
            }
        }
        Ok(())
    }

    /// Atomic compaction: write a fresh journal containing one `Base`
    /// group for `state` to `<path>.tmp`, fsync it, and rename it over
    /// the live journal. The old journal is only replaced once the
    /// compacted file is durable — a crash anywhere in between leaves
    /// the old journal authoritative.
    pub fn compact(&mut self, state: &ResumeState) -> Result<(), JournalError> {
        if self.killed {
            return Err(JournalError::Killed);
        }
        if !self.pending.is_empty() {
            return Err(JournalError::Encode("compact with uncommitted records".into()));
        }
        let t0 = std::time::Instant::now();
        let r = self.compact_inner(state);
        self.note_spent(t0);
        r
    }

    fn compact_inner(&mut self, state: &ResumeState) -> Result<(), JournalError> {
        let mut tmp_name = self.path.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        // Re-encode from seq 0: a compacted journal is a fresh log.
        self.next_seq = 0;
        self.encode_frame(&JournalRecord::Base { state: state.clone() })?;
        self.encode_frame(&JournalRecord::Commit { op: "compact".to_string() })?;
        // Point the writer at the tmp file for the flush; a kill (or IO
        // failure) mid-flush abandons the tmp file before the rename,
        // leaving the old journal authoritative.
        self.file = std::fs::File::create(&tmp)?;
        self.flush_group()?;
        self.sync_inner()?; // the compacted snapshot must be durable pre-rename
        std::fs::rename(&tmp, &self.path)?;
        self.file = std::fs::OpenOptions::new().append(true).open(&self.path)?;
        if let Some(m) = &self.metrics {
            m.compactions_total.inc();
        }
        Ok(())
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
    if records.is_empty() {
        return Ok(None);
    }
    let mut state = match &records[0] {
        JournalRecord::Base { state } => state.clone(),
        other => {
            return Err(JournalError::Decode {
                seq: 0,
                detail: format!("journal does not begin with a Base record: {other:?}"),
            })
        }
    };
    for record in &records[1..] {
        match record {
            JournalRecord::Base { state: base } => state = base.clone(),
            JournalRecord::SeedsCollected { school, seeds } => {
                state.seeds.insert(*school, seeds.clone());
            }
            JournalRecord::ProfileCommitted { uid, profile } => {
                if profile.tombstoned && !state.tombstoned.contains(uid) {
                    state.tombstoned.push(*uid);
                    state.tombstoned.sort_unstable();
                }
                state.profiles.insert(*uid, profile.clone());
            }
            JournalRecord::FriendsCommitted { uid, friends, partial, gen } => {
                if *partial {
                    if !state.incomplete.contains(uid) {
                        state.incomplete.push(*uid);
                        state.incomplete.sort_unstable();
                    }
                } else {
                    state.incomplete.retain(|u| u != uid);
                }
                if let Some(g) = gen {
                    state.friends_gen.insert(*uid, *g);
                }
                state.friends.insert(*uid, friends.clone());
            }
            JournalRecord::CirclesCommitted { uid, incoming, members } => {
                state.circles.retain(|c| !(c.uid == *uid && c.incoming == *incoming));
                state.circles.push(CirclesEntry {
                    uid: *uid,
                    incoming: *incoming,
                    members: members.clone(),
                });
            }
            JournalRecord::MessageSent { .. }
            | JournalRecord::LaneSuspended { .. }
            | JournalRecord::LaneRecruited { .. }
            | JournalRecord::Commit { .. } => {}
            JournalRecord::Lanes { lanes } => state.lanes = lanes.clone(),
            JournalRecord::Lane { lane } => {
                match state.lanes.iter_mut().find(|l| l.index == lane.index) {
                    Some(slot) => *slot = lane.clone(),
                    None => {
                        state.lanes.push(lane.clone());
                        state.lanes.sort_by_key(|l| l.index);
                    }
                }
            }
            JournalRecord::Sched { sched } => state.sched = sched.clone(),
        }
    }
    Ok(Some(state))
}

/// Payload digest of a resume state (diagnostics / test assertions).
pub fn state_digest(state: &ResumeState) -> u64 {
    let value = serde_json::to_value(state).expect("resume state serializes");
    fnv1a(value.render_compact().as_bytes())
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
            JournalRecord::Lanes { lanes: vec![LaneState { index: 0, ..Default::default() }] },
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
            .append(&JournalRecord::MessageSent { uid: UserId(5), accepted: true })
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
    fn compaction_is_atomic_and_restartable() {
        let path = tmp_path("compact.wal");
        let mut journal = write_log(&path, &sample_records());
        let log = recover(&path).expect("recover");
        let state = fold_state(&log.records).expect("fold").expect("state");
        journal.compact(&state).expect("compact");
        assert!(!path.with_extension("wal.tmp").exists());
        // The compacted journal folds to the same state.
        let compacted = recover(&path).expect("recover compacted");
        assert_eq!(compacted.groups, 1);
        let refolded = fold_state(&compacted.records).expect("fold").expect("state");
        assert_eq!(state_digest(&refolded), state_digest(&state));
        // And stays appendable.
        journal
            .append(&JournalRecord::MessageSent { uid: UserId(7), accepted: false })
            .expect("append");
        journal.commit("send_message").expect("commit");
        let after = recover(&path).expect("recover after append");
        assert_eq!(after.groups, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_during_compaction_preserves_old_journal() {
        let path = tmp_path("compact_kill.wal");
        let mut journal = write_log(&path, &sample_records());
        let before = recover(&path).expect("recover");
        let state = fold_state(&before.records).expect("fold").expect("state");
        journal.kill = Some(KillPlan::after(journal.records_written() + 1));
        assert!(matches!(journal.compact(&state), Err(JournalError::Killed)));
        // The rename never happened: the original journal is untouched.
        let after = recover(&path).expect("recover");
        assert_eq!(after.records, before.records);
        let _ = std::fs::remove_file(&path);
    }
}

#[cfg(test)]
mod framing_proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_record() -> impl Strategy<Value = JournalRecord> {
        prop_oneof![
            (any::<u32>(), proptest::collection::vec(any::<u64>(), 0..6)).prop_map(|(s, ids)| {
                JournalRecord::SeedsCollected {
                    school: SchoolId(s),
                    seeds: ids.into_iter().map(UserId).collect(),
                }
            }),
            (any::<u64>(), any::<bool>(), proptest::option::of(any::<u64>())).prop_map(
                |(u, partial, gen)| JournalRecord::FriendsCommitted {
                    uid: UserId(u),
                    friends: Some(vec![UserId(u ^ 1)]),
                    partial,
                    gen,
                }
            ),
            (any::<u64>(), any::<bool>())
                .prop_map(|(u, accepted)| JournalRecord::MessageSent { uid: UserId(u), accepted }),
            any::<u64>().prop_map(|u| JournalRecord::LaneSuspended {
                index: u % 8,
                username: format!("w-{}", u % 8)
            }),
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
        let path = dir.join(format!("prop-{:x}.wal", fnv1a(format!("{records:?}").as_bytes())));
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
            JournalRecord::MessageSent { uid: UserId(4), accepted: true },
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
