//! The journal's record codec: the binary payload inside each CRC
//! frame.
//!
//! A record is one tag byte naming its kind, then its fields in
//! declaration order (DESIGN.md §10 lays out every kind field by
//! field). Each value is written the same way wherever it appears:
//!
//! - Every integer and id is an unsigned LEB128 varint: seven bits a
//!   byte, the low group first, the high bit set on every byte but the
//!   last. An `i32` (`grad_year`, a `Date`'s year) is zigzagged first
//!   (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), so small years of either
//!   sign stay short.
//! - A `bool` is one byte, 0 or 1.
//! - An `Option` is a presence byte, 0 or 1, then the value when it is
//!   1. (A `v + 1` varint would wrap `Some(u64::MAX)` to `None`.)
//! - A string is its byte length, then its UTF-8 bytes.
//! - A `Vec`, `BTreeSet` or `BTreeMap` is its element count, then its
//!   elements in order, a map's each as key then value.
//! - A `Date` is its zigzagged year, then month and day; a
//!   `ScrapedEduKind` is one byte, 0 to 2.
//!
//! The encoder writes into the caller's buffer and cannot fail. The
//! decoder reads the CRC-checked payload through a bounds-checked
//! [`Reader`] and accepts exactly what the encoder writes, so every
//! record has one encoding. It refuses, never panics: a payload that
//! ends inside a value, a varint past 64 bits or past its type's range,
//! an overlong varint (a last byte of 0 after a continued one), an
//! unknown tag, a bool or presence byte other than 0 or 1, a string
//! that is not UTF-8, a `Date` that is not a calendar day, set or map
//! keys that do not strictly ascend, a length prefix that runs past the
//! payload end (checked before anything is allocated: every element
//! takes at least one byte) and bytes left over after the record.

use super::{
    BreakerState, CirclesEntry, JournalError, JournalRecord, LaneState, PacingState, ResumeState,
    SchedState,
};
use crate::effort::Effort;
use crate::scrape::{ScrapedEduKind, ScrapedEducation, ScrapedProfile};
use hsp_graph::{CityId, Date, SchoolId, UserId};
use hsp_http::{RetryStatsSnapshot, TransportState};
use std::collections::{BTreeMap, BTreeSet};

const TAG_BASE: u8 = 0;
const TAG_SEEDS: u8 = 1;
const TAG_PROFILE: u8 = 2;
const TAG_FRIENDS: u8 = 3;
const TAG_CIRCLES: u8 = 4;
const TAG_LANE: u8 = 5;
const TAG_SCHED: u8 = 6;
const TAG_COMMIT: u8 = 7;

/// Append `record`'s payload to `out`.
pub(crate) fn encode_record(record: &JournalRecord, out: &mut Vec<u8>) {
    record.put(out);
}

/// Append `state`'s encoding (a `Base` payload without its tag) to `out`.
pub(crate) fn encode_state(state: &ResumeState, out: &mut Vec<u8>) {
    state.put(out);
}

/// Decode the payload of frame `seq`: exactly one record, every byte
/// consumed.
pub(crate) fn decode_record(seq: u64, payload: &[u8]) -> Result<JournalRecord, JournalError> {
    let mut r = Reader { buf: payload, pos: 0 };
    let record = JournalRecord::get(&mut r).and_then(|record| match r.remaining() {
        0 => Ok(record),
        _ => Err("trailing bytes after the record"),
    });
    record.map_err(|why| JournalError::Decode {
        seq,
        detail: format!("{why} (payload byte {} of {})", r.pos, payload.len()),
    })
}

/// Why a payload was refused.
type Refusal = &'static str;

/// A bounds-checked cursor over one payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, Refusal> {
        let b = *self.buf.get(self.pos).ok_or("payload ends inside a value")?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, Refusal> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err("varint overflows 64 bits");
            }
            if b == 0 && shift > 0 {
                return Err("overlong varint");
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A length or count prefix, refused when it runs past the payload
    /// end: every string byte and every element takes at least one.
    fn len(&mut self) -> Result<usize, Refusal> {
        let n = self.varint()?;
        if n > self.remaining() as u64 {
            return Err("length prefix runs past the payload end");
        }
        Ok(n as usize)
    }

    fn flag(&mut self) -> Result<bool, Refusal> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("bool or presence byte is neither 0 nor 1"),
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// One journaled value: how it is written and read back.
trait Codec: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal>;
}

impl Codec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        r.varint()
    }
}

impl Codec for u32 {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        u32::try_from(r.varint()?).map_err(|_| "varint overflows u32")
    }
}

impl Codec for i32 {
    fn put(&self, out: &mut Vec<u8>) {
        ((*self << 1) ^ (*self >> 31)).cast_unsigned().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        let z = u32::get(r)?;
        Ok((z >> 1).cast_signed() ^ -((z & 1) as i32))
    }
}

impl Codec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        r.flag()
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        let n = r.len()?;
        let bytes = &r.buf[r.pos..r.pos + n];
        r.pos += n;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| "string is not UTF-8")
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        if r.flag()? {
            T::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }

    /// Grows as elements decode rather than reserving `n` up front: a
    /// count bounded by the bytes left still multiplies by the size of
    /// an element.
    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        let n = r.len()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

impl<T: Codec + Ord> Codec for BTreeSet<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        let items = Vec::<T>::get(r)?;
        ascending(&items, |v| v)?;
        Ok(items.into_iter().collect())
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        let n = r.len()?;
        let entries =
            (0..n).map(|_| Ok((K::get(r)?, V::get(r)?))).collect::<Result<Vec<_>, _>>()?;
        ascending(&entries, |(k, _)| k)?;
        Ok(entries.into_iter().collect())
    }
}

/// Refuse set or map keys that do not strictly ascend: the encoder
/// writes a `BTreeSet` or `BTreeMap` in key order, once each.
fn ascending<E, K: Ord>(items: &[E], key: impl Fn(&E) -> &K) -> Result<(), Refusal> {
    match items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        true => Ok(()),
        false => Err("set or map keys do not strictly ascend"),
    }
}

/// A cookie: name, then value.
impl Codec for (String, String) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        Ok((String::get(r)?, String::get(r)?))
    }
}

/// Ids are their raw index.
macro_rules! id_codec {
    ($($id:ident($repr:ty)),*) => {$(
        impl Codec for $id {
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
                <$repr>::get(r).map($id)
            }
        }
    )*};
}

id_codec!(UserId(u64), SchoolId(u32), CityId(u32));

impl Codec for Date {
    fn put(&self, out: &mut Vec<u8>) {
        self.year().put(out);
        u32::from(self.month()).put(out);
        u32::from(self.day()).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        let year = i32::get(r)?;
        let month = u8::try_from(u32::get(r)?).map_err(|_| "date month overflows u8")?;
        let day = u8::try_from(u32::get(r)?).map_err(|_| "date day overflows u8")?;
        Date::new(year, month, day).map_err(|_| "date is not a calendar day")
    }
}

impl Codec for ScrapedEduKind {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            ScrapedEduKind::HighSchool => 0,
            ScrapedEduKind::College => 1,
            ScrapedEduKind::GraduateSchool => 2,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        match r.byte()? {
            0 => Ok(ScrapedEduKind::HighSchool),
            1 => Ok(ScrapedEduKind::College),
            2 => Ok(ScrapedEduKind::GraduateSchool),
            _ => Err("unknown education kind"),
        }
    }
}

/// A struct is its fields in the order listed, which is their
/// declaration order. Decoding builds the struct literal, so a field
/// added to the type and not listed here fails to compile.
macro_rules! struct_codec {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
                Ok($ty { $($field: Codec::get(r)?,)* })
            }
        }
    )*};
}

struct_codec! {
    ScrapedEducation { school, kind, grad_year }
    ScrapedProfile {
        uid, name, gender, has_photo, networks, education, current_city, hometown,
        relationship, interested_in, birthday, photos_shared, wall_posts, wall_posters,
        has_contact_info, friend_list_visible, message_button, generation, tombstoned,
    }
    Effort {
        auth_requests, seed_requests, profile_requests, friend_list_requests,
        message_requests, retry_requests, captcha_challenges, captcha_virtual_ms,
        decoy_requests, stale_refetch_requests, tombstones,
    }
    BreakerState { consecutive, open }
    PacingState { draws, profiles, revisit, widen_factor, calm_streak }
    TransportState { cookies, attempt_seq, jitter_state }
    LaneState {
        index, username, suspended, effort, clock_ms, breakers, trace_ordinal, transport,
        pacing,
    }
    RetryStatsSnapshot {
        retries, rate_limited, server_errors, sheds, resets, deadlines_exceeded,
        backoff_virtual_ms, edge_limited, fault_rate_limited, throttled,
    }
    SchedState { rr, modeled_wall_ms, recruited, stale_refetches, retry_stats }
    CirclesEntry { uid, incoming, members }
    ResumeState {
        label, seeds, profiles, friends, circles, incomplete, tombstoned, friends_gen, lanes,
        sched,
    }
}

impl Codec for JournalRecord {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::Base { state } => {
                out.push(TAG_BASE);
                state.put(out);
            }
            JournalRecord::SeedsCollected { school, seeds } => {
                out.push(TAG_SEEDS);
                school.put(out);
                seeds.put(out);
            }
            JournalRecord::ProfileCommitted { uid, profile } => {
                out.push(TAG_PROFILE);
                uid.put(out);
                profile.put(out);
            }
            JournalRecord::FriendsCommitted { uid, friends, partial, gen } => {
                out.push(TAG_FRIENDS);
                uid.put(out);
                friends.put(out);
                partial.put(out);
                gen.put(out);
            }
            JournalRecord::CirclesCommitted { uid, incoming, members } => {
                out.push(TAG_CIRCLES);
                uid.put(out);
                incoming.put(out);
                members.put(out);
            }
            JournalRecord::Lane { lane } => {
                out.push(TAG_LANE);
                lane.put(out);
            }
            JournalRecord::Sched { sched } => {
                out.push(TAG_SCHED);
                sched.put(out);
            }
            JournalRecord::Commit { op } => {
                out.push(TAG_COMMIT);
                op.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, Refusal> {
        Ok(match r.byte()? {
            TAG_BASE => JournalRecord::Base { state: Codec::get(r)? },
            TAG_SEEDS => {
                JournalRecord::SeedsCollected { school: Codec::get(r)?, seeds: Codec::get(r)? }
            }
            TAG_PROFILE => {
                JournalRecord::ProfileCommitted { uid: Codec::get(r)?, profile: Codec::get(r)? }
            }
            TAG_FRIENDS => JournalRecord::FriendsCommitted {
                uid: Codec::get(r)?,
                friends: Codec::get(r)?,
                partial: Codec::get(r)?,
                gen: Codec::get(r)?,
            },
            TAG_CIRCLES => JournalRecord::CirclesCommitted {
                uid: Codec::get(r)?,
                incoming: Codec::get(r)?,
                members: Codec::get(r)?,
            },
            TAG_LANE => JournalRecord::Lane { lane: Codec::get(r)? },
            TAG_SCHED => JournalRecord::Sched { sched: Codec::get(r)? },
            TAG_COMMIT => JournalRecord::Commit { op: Codec::get(r)? },
            _ => return Err("unknown record tag"),
        })
    }
}
