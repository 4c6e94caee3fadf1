//! The wire codec: every byte format that crosses the controller ↔
//! agent boundary.
//!
//! Every message is one [`Frame`]: a `u32` big-endian length prefix
//! (counting everything after itself), a one-byte tag, and a
//! tag-specific payload. A pinglist change travels as itself — one
//! [`Frame::ListUpdate`] per [`ListUpdate`] that
//! [`diff_lists`](crate::dispatch::diff_lists) built — so
//! a re-plan's `bytes_dispatched` is the length [`encode_update`]
//! gives those frames, not a model of it. A plan cell whose id range
//! moves sends nothing of its own: its re-numbered entries are list
//! updates, and a pinger keeps no counters across windows for the old
//! ids to name.
//!
//! A [`PingEntry`] and its route have one byte form ([`encode_entry`]): whole lists and
//! edit scripts carry it, and [`entry_key`](crate::dispatch::entry_key)
//! hashes it. Reports travel delta/varint-coded (layout at
//! `encode_report`'s definition and in the agent crate's README): a
//! report's two runs are already ascending, so keys ship as deltas and
//! counters as LEB128 varints, and its in-rack total closes it. Every
//! encoding is canonical — one byte string per value, and the decoder
//! rejects every other spelling — so frame bytes are safe to compare,
//! hash and count.
//!
//! Frames arrive off real sockets: decoding never panics, never reserves
//! more than a constant times the input length, and fails with a typed
//! [`FrameError`].

#[cfg(test)]
mod reference;

use std::fmt;

use detector_core::dense::Runs;
use detector_core::types::{NodeId, PathId};

use crate::dispatch::ListUpdate;
use crate::{FlowRecord, PathCounters, PingEntry, PingerReport, Pinglist};

/// Hard cap on a frame's post-prefix length (tag + payload): 16 MiB.
/// A whole-fabric pinglist for the largest supported topologies is well
/// under 1 MiB, so anything bigger is a corrupt or hostile prefix and is
/// rejected before any allocation.
pub const MAX_FRAME: u32 = 1 << 24;

/// One protocol message: dispatch (list updates and the resync
/// preamble), then window orchestration, health probing and
/// report return.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Agent introduction, sent once per connection.
    Hello {
        /// The agent's ordinal (its [`HostGroups`] index).
        ///
        /// [`HostGroups`]: detector_simnet::HostGroups
        agent: u32,
    },
    /// One pinger's list changes: a whole list, a retired list, or an
    /// edit script sealed by the rebuilt list's stamp.
    ListUpdate(ListUpdate),
    /// Drop all agent state (lists and bindings) — the preamble of a
    /// full resync.
    Reset,
    /// Run one window over every owned list not in `skip`.
    WindowStart {
        /// Window index.
        window: u64,
        /// The window's master seed; each batch derives its own stream
        /// via [`batch_seed`](crate::batch_seed).
        window_seed: u64,
        /// Pingers excluded by the watchdog this window (sorted).
        skip: Vec<NodeId>,
    },
    /// Controller liveness probe.
    HeartbeatReq {
        /// Echo token.
        nonce: u64,
    },
    /// Agent liveness answer.
    HeartbeatAck {
        /// The request's token, echoed.
        nonce: u64,
        /// The answering agent's ordinal.
        agent: u32,
    },
    /// One pinger's window report (the paper's HTTP POST).
    Report(PingerReport),
    /// All owned, non-skipped lists of `window` have reported.
    WindowDone {
        /// The finished window.
        window: u64,
        /// The reporting agent's ordinal.
        agent: u32,
    },
    /// Orderly connection teardown.
    Shutdown,
}

/// Why a byte buffer failed to parse as a [`Frame`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ended before the announced length (or mid-field).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// Unknown frame tag.
    UnknownTag(u8),
    /// The payload decoded but bytes were left over.
    TrailingBytes,
    /// A structurally invalid payload (e.g. a malformed entry).
    BadPayload(&'static str),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::Oversize(n) => write!(f, "frame length {n} exceeds MAX_FRAME"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t}"),
            FrameError::TrailingBytes => write!(f, "trailing bytes after frame payload"),
            FrameError::BadPayload(what) => write!(f, "bad frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

const TAG_HELLO: u8 = 0;
const TAG_LIST_REPLACE: u8 = 1;
const TAG_LIST_REMOVE: u8 = 2;
const TAG_LIST_DIFF: u8 = 3;
const TAG_RESET: u8 = 7;
const TAG_WINDOW_START: u8 = 8;
const TAG_HEARTBEAT_REQ: u8 = 9;
const TAG_HEARTBEAT_ACK: u8 = 10;
const TAG_REPORT: u8 = 11;
const TAG_WINDOW_DONE: u8 = 12;
const TAG_SHUTDOWN: u8 = 13;

impl Frame {
    /// Encodes the frame as wire bytes: `u32` BE length prefix (covering
    /// tag + payload), tag byte, payload.
    pub fn encode(&self) -> Vec<u8> {
        framed(|out| match self {
            Frame::Hello { agent } => {
                out.push(TAG_HELLO);
                put_u32(out, *agent);
            }
            Frame::ListUpdate(update) => put_update(update, out),
            Frame::Reset => out.push(TAG_RESET),
            Frame::WindowStart {
                window,
                window_seed,
                skip,
            } => {
                out.push(TAG_WINDOW_START);
                put_u64(out, *window);
                put_u64(out, *window_seed);
                put_u32(out, skip.len() as u32);
                for s in skip {
                    put_u32(out, s.0);
                }
            }
            Frame::HeartbeatReq { nonce } => {
                out.push(TAG_HEARTBEAT_REQ);
                put_u64(out, *nonce);
            }
            Frame::HeartbeatAck { nonce, agent } => {
                out.push(TAG_HEARTBEAT_ACK);
                put_u64(out, *nonce);
                put_u32(out, *agent);
            }
            Frame::Report(report) => {
                out.push(TAG_REPORT);
                encode_report(report, out);
            }
            Frame::WindowDone { window, agent } => {
                out.push(TAG_WINDOW_DONE);
                put_u64(out, *window);
                put_u32(out, *agent);
            }
            Frame::Shutdown => out.push(TAG_SHUTDOWN),
        })
    }

    /// Decodes one whole frame (length prefix included). The buffer must
    /// contain exactly one frame: a short buffer is [`Truncated`], bytes
    /// past the announced length are [`TrailingBytes`].
    ///
    /// [`Truncated`]: FrameError::Truncated
    /// [`TrailingBytes`]: FrameError::TrailingBytes
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        let mut buf = bytes;
        let len = take_u32(&mut buf)?;
        let [tag] = take_array(&mut buf)?;
        if len > MAX_FRAME {
            return Err(FrameError::Oversize(len));
        }
        let total = 4 + len as usize;
        if bytes.len() < total {
            return Err(FrameError::Truncated);
        }
        if bytes.len() > total {
            return Err(FrameError::TrailingBytes);
        }
        let frame = match tag {
            TAG_HELLO => Frame::Hello {
                agent: take_u32(&mut buf)?,
            },
            TAG_LIST_REPLACE => Frame::ListUpdate(ListUpdate::Replace(decode_list(&mut buf)?)),
            TAG_LIST_REMOVE => Frame::ListUpdate(ListUpdate::Remove(NodeId(take_u32(&mut buf)?))),
            TAG_LIST_DIFF => Frame::ListUpdate(decode_diff(&mut buf)?),
            TAG_RESET => Frame::Reset,
            TAG_WINDOW_START => {
                let window = take_u64(&mut buf)?;
                let window_seed = take_u64(&mut buf)?;
                let n = take_u32(&mut buf)? as usize;
                if buf.len() < n * 4 {
                    return Err(FrameError::Truncated);
                }
                let mut skip = Vec::with_capacity(n);
                for _ in 0..n {
                    skip.push(NodeId(take_u32(&mut buf)?));
                }
                Frame::WindowStart {
                    window,
                    window_seed,
                    skip,
                }
            }
            TAG_HEARTBEAT_REQ => Frame::HeartbeatReq {
                nonce: take_u64(&mut buf)?,
            },
            TAG_HEARTBEAT_ACK => Frame::HeartbeatAck {
                nonce: take_u64(&mut buf)?,
                agent: take_u32(&mut buf)?,
            },
            TAG_REPORT => Frame::Report(decode_report(&mut buf)?),
            TAG_WINDOW_DONE => Frame::WindowDone {
                window: take_u64(&mut buf)?,
                agent: take_u32(&mut buf)?,
            },
            TAG_SHUTDOWN => Frame::Shutdown,
            other => return Err(FrameError::UnknownTag(other)),
        };
        if !buf.is_empty() {
            return Err(FrameError::TrailingBytes);
        }
        Ok(frame)
    }
}

/// The frame `body` writes (tag and payload) behind its length prefix.
fn framed(body: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = vec![0u8; 4]; // Length prefix backfilled below.
    body(&mut out);
    let len = (out.len() - 4) as u32;
    if let Some(prefix) = out.first_chunk_mut() {
        *prefix = len.to_be_bytes();
    }
    out
}

/// The frame length of `list` shipped whole, encoded over `buf`.
pub(crate) fn replace_len(list: &Pinglist, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    encode_list(list, buf);
    4 + 1 + buf.len() // The length prefix and the tag.
}

/// The frame length of `update`, encoded over `buf`.
pub(crate) fn update_len(update: &ListUpdate, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    put_update(update, buf);
    4 + buf.len() // The length prefix.
}

/// The bytes of `update`'s [`Frame::ListUpdate`], without cloning the
/// update into a frame: what dispatch ships and counts.
pub fn encode_update(update: &ListUpdate) -> Vec<u8> {
    framed(|out| put_update(update, out))
}

/// The bytes of `list` shipped whole — [`encode_update`] of a
/// [`ListUpdate::Replace`] — without cloning the list into an update.
pub fn encode_replace(list: &Pinglist) -> Vec<u8> {
    framed(|out| put_replace(list, out))
}

fn put_replace(list: &Pinglist, out: &mut Vec<u8>) {
    out.push(TAG_LIST_REPLACE);
    encode_list(list, out);
}

/// A whole list and a retired one keep their own tags; an edit script is
///
/// ```text
/// u32 pinger | u64 version | u64 stamp
/// varint #removed | #removed × u64 entry key
/// varint #added   | #added × ( u32 index | entry )
/// ```
fn put_update(update: &ListUpdate, out: &mut Vec<u8>) {
    match update {
        ListUpdate::Replace(list) => put_replace(list, out),
        ListUpdate::Remove(pinger) => {
            out.push(TAG_LIST_REMOVE);
            put_u32(out, pinger.0);
        }
        ListUpdate::Diff {
            pinger,
            version,
            stamp,
            removed,
            added,
            routes,
        } => {
            out.push(TAG_LIST_DIFF);
            put_u32(out, pinger.0);
            put_u64(out, *version);
            put_u64(out, *stamp);
            put_varint(out, removed.len() as u64);
            for &key in removed {
                put_u64(out, key);
            }
            put_varint(out, added.len() as u64);
            for (i, (index, entry)) in added.iter().enumerate() {
                put_u32(out, *index);
                encode_entry(entry, routes.run(i), out);
            }
        }
    }
}

fn decode_diff(buf: &mut &[u8]) -> Result<ListUpdate, FrameError> {
    let pinger = NodeId(take_u32(buf)?);
    let version = take_u64(buf)?;
    let stamp = take_u64(buf)?;
    let n = take_count(buf, 8)?;
    let mut removed = Vec::with_capacity(n);
    for _ in 0..n {
        removed.push(take_u64(buf)?);
    }
    let n = take_count(buf, 4 + MIN_ENTRY)?;
    let (mut added, mut routes) = (Vec::with_capacity(n), Runs::default());
    for _ in 0..n {
        added.push((take_u32(buf)?, decode_entry(buf, &mut routes)?));
    }
    Ok(ListUpdate::Diff {
        pinger,
        version,
        stamp,
        removed,
        added,
        routes,
    })
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

// `inline(always)` on this and the other field readers `decode_report`
// calls: the inliner leaves them out of line otherwise — measured 5.4 →
// 2.5 µs a quiet Fattree(32) report, cache-hot, when every record went
// through them. `take_plain_path` now reads the common record itself,
// so they read the header, the in-rack total and the records it hands
// back.
#[inline(always)]
fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], FrameError> {
    let (head, rest) = buf.split_first_chunk().ok_or(FrameError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

fn take_u16(buf: &mut &[u8]) -> Result<u16, FrameError> {
    take_array(buf).map(u16::from_be_bytes)
}

fn take_u32(buf: &mut &[u8]) -> Result<u32, FrameError> {
    take_array(buf).map(u32::from_be_bytes)
}

fn take_u64(buf: &mut &[u8]) -> Result<u64, FrameError> {
    take_array(buf).map(u64::from_be_bytes)
}

/// LEB128: seven value bits per byte, least significant group first,
/// high bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one varint, accepting only the spelling [`put_varint`] writes:
/// at most ten bytes, no bits beyond the 64th, no padding zero groups.
#[inline(always)]
fn take_varint(buf: &mut &[u8]) -> Result<u64, FrameError> {
    // Most report fields (key deltas, per-flow counters) fit one byte,
    // and most of the rest (path counters) two: both decode inline. A
    // zero second byte is padding, left to the long form to reject.
    let bytes: &[u8] = buf;
    match *bytes {
        [b, ref rest @ ..] if b < 0x80 => {
            *buf = rest;
            Ok(u64::from(b))
        }
        [low, high, ref rest @ ..] if high < 0x80 && high != 0 => {
            *buf = rest;
            Ok(u64::from(low & 0x7F) | u64::from(high) << 7)
        }
        _ => take_long_varint(buf),
    }
}

fn take_long_varint(buf: &mut &[u8]) -> Result<u64, FrameError> {
    let mut v = 0u64;
    for (i, &b) in buf.iter().enumerate().take(10) {
        v |= u64::from(b & 0x7F) << (7 * i);
        if b & 0x80 != 0 {
            continue;
        }
        if i == 9 && b > 1 {
            return Err(FrameError::BadPayload("varint overflows 64 bits"));
        }
        if i > 0 && b == 0 {
            return Err(FrameError::BadPayload("varint is zero-padded"));
        }
        *buf = buf.get(i + 1..).unwrap_or_default();
        return Ok(v);
    }
    Err(if buf.len() < 10 {
        FrameError::Truncated
    } else {
        FrameError::BadPayload("varint longer than 10 bytes")
    })
}

/// The smallest entry: two absent-field flags, an empty route, a
/// responder.
const MIN_ENTRY: usize = 1 + 2 + 4 + 1;

/// The one byte form of a [`PingEntry`] with its route (which the list
/// keeps beside the entry, in [`Pinglist::routes`]): an optional path
/// id, the `u16`-counted route, the responder and an optional waypoint,
/// each optional field behind a 0/1 flag byte.
pub fn encode_entry(e: &PingEntry, route: &[NodeId], out: &mut Vec<u8>) {
    put_flagged(out, e.path.map(|p| p.0));
    put_u16(out, route.len() as u16);
    for n in route {
        put_u32(out, n.0);
    }
    put_u32(out, e.responder.0);
    put_flagged(out, e.waypoint.map(|w| w.0));
}

fn put_flagged(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            put_u32(out, v);
        }
        None => out.push(0),
    }
}

fn take_flagged(buf: &mut &[u8]) -> Result<Option<u32>, FrameError> {
    match take_array(buf)? {
        [0] => Ok(None),
        [1] => take_u32(buf).map(Some),
        _ => Err(FrameError::BadPayload("ping entry flag")),
    }
}

/// Decodes one entry from the front of `buf`, advancing it, and appends
/// its route to `routes`.
fn decode_entry(buf: &mut &[u8], routes: &mut Runs<NodeId>) -> Result<PingEntry, FrameError> {
    let path = take_flagged(buf)?.map(PathId);
    let hops = usize::from(take_u16(buf)?);
    // Two bytes off the wire must not reserve 256 KB: the hops have to
    // be there before room is made for them.
    let (route, rest) = buf
        .split_at_checked(hops * 4)
        .ok_or(FrameError::Truncated)?;
    let (nodes, _) = route.as_chunks();
    routes.push_run(nodes.iter().map(|&n| NodeId(u32::from_be_bytes(n))));
    *buf = rest;
    Ok(PingEntry {
        path,
        responder: NodeId(take_u32(buf)?),
        waypoint: take_flagged(buf)?.map(NodeId),
    })
}

/// The list header (version, pinger, interval, ports, stamp), then an
/// entry count and the entries.
fn encode_list(list: &Pinglist, out: &mut Vec<u8>) {
    put_u64(out, list.version);
    put_u32(out, list.pinger.0);
    put_u64(out, list.interval_us);
    put_u16(out, list.base_sport);
    put_u16(out, list.port_range);
    put_u16(out, list.dport);
    put_u64(out, list.stamp);
    put_u32(out, list.entries.len() as u32);
    for (e, route) in list.iter() {
        encode_entry(e, route, out);
    }
}

fn decode_list(buf: &mut &[u8]) -> Result<Pinglist, FrameError> {
    let version = take_u64(buf)?;
    let pinger = NodeId(take_u32(buf)?);
    let interval_us = take_u64(buf)?;
    let base_sport = take_u16(buf)?;
    let port_range = take_u16(buf)?;
    let dport = take_u16(buf)?;
    let stamp = take_u64(buf)?;
    let n = take_u32(buf)? as usize;
    let (mut entries, mut routes) = (Vec::new(), Runs::default());
    for _ in 0..n {
        entries.push(decode_entry(buf, &mut routes)?);
    }
    Ok(Pinglist {
        version,
        pinger,
        entries,
        routes,
        interval_us,
        base_sport,
        port_range,
        dport,
        stamp,
    })
}

/// Smallest encodings of the counters and of one path and flow record
/// (every varint one byte): what [`take_count`] divides the remaining
/// bytes by.
const MIN_COUNTERS: usize = 1 + 1;
const MIN_PATH_RECORD: usize = 1 + MIN_COUNTERS + 1 + 1;
const MIN_FLOW_RECORD: usize = 1 + 1 + 1 + 1;

fn encode_counters(c: &PathCounters, out: &mut Vec<u8>) {
    put_varint(out, c.sent);
    put_varint(out, c.lost);
}

/// The diagnoser sums a window's rows as they are, and those sums are
/// its observations only while no record claims more losses than probes.
#[inline(always)]
fn decode_counters(buf: &mut &[u8]) -> Result<PathCounters, FrameError> {
    let sent = take_varint(buf)?;
    let lost = take_varint(buf)?;
    if lost > sent {
        return Err(FrameError::BadPayload("lost exceeds sent"));
    }
    Ok(PathCounters { sent, lost })
}

/// Writes the next key of an ascending run as its distance from the
/// previous one (the first key's distance is from zero).
fn put_delta(out: &mut Vec<u8>, prev: &mut u32, key: u32) {
    // A run that is not ascending wraps into a delta the decoder's range
    // check refuses, so a malformed report cannot cross the wire.
    put_varint(out, u64::from(key.wrapping_sub(*prev)));
    *prev = key;
}

/// Adds a decoded delta to the previous key (zero before the first);
/// the sum must stay in `T`'s range.
#[inline(always)]
fn advance<T: TryFrom<u64>>(prev: Option<T>, delta: u64) -> Result<T, FrameError>
where
    u64: From<T>,
{
    prev.map_or(0, u64::from)
        .checked_add(delta)
        .and_then(|k| T::try_from(k).ok())
        .ok_or(FrameError::BadPayload("key out of range"))
}

/// Reads the next key of a strictly ascending `u32` run.
#[inline(always)]
fn take_key(buf: &mut &[u8], prev: &mut Option<u32>) -> Result<u32, FrameError> {
    let delta = take_varint(buf)?;
    if prev.is_some() && delta == 0 {
        return Err(FrameError::BadPayload("keys not strictly ascending"));
    }
    let key = advance(*prev, delta)?;
    *prev = Some(key);
    Ok(key)
}

/// Reads a record count and checks it against what is left of the frame
/// — before anything is reserved for it.
#[inline(always)]
fn take_count(buf: &mut &[u8], min_record: usize) -> Result<usize, FrameError> {
    usize::try_from(take_varint(buf)?)
        .ok()
        .filter(|n| n.checked_mul(min_record).is_some_and(|b| b <= buf.len()))
        .ok_or(FrameError::BadPayload("record count exceeds the frame"))
}

/// Report payload, in the order the report's runs already have:
///
/// ```text
/// u32 pinger | varint window | varint #paths | varint #records
/// #paths × ( varint path-id delta | counters
///            varint flows probed | varint #records of the path
///            #… × ( varint sport delta | u8 dscp | counters ) )
/// in-rack total = counters
/// counters = varint sent | varint lost
/// ```
///
/// The first key of a run is absolute; sport deltas restart with every
/// path. A record is a flow that lost a probe on a path that kept one; a
/// path that lost every probe has none. The flows probed without a
/// record are that count and nothing else. `#records` is the total over
/// all paths, so the decoder sizes the flat flow run once. The in-rack
/// total sums the probes of every in-rack responder.
///
/// The paths are written in two loops over slices, as `WindowLog::push`
/// files them: those with a flow count, then any past the end of
/// `flows_probed` with 0.
fn encode_report(r: &PingerReport, out: &mut Vec<u8>) {
    put_u32(out, r.pinger.0);
    put_varint(out, r.window);
    put_varint(out, r.paths.len() as u64);
    put_varint(out, r.flows.len() as u64);
    let mut flows = r.flows.as_slice();
    let mut prev = 0;
    let mut path = |out: &mut Vec<u8>, &(pid, c): &(PathId, PathCounters), probed: u32| {
        put_delta(out, &mut prev, pid.0);
        encode_counters(&c, out);
        let n = flows.iter().take_while(|f| f.path == pid).count();
        let (own, rest) = flows.split_at(n);
        flows = rest;
        put_varint(out, u64::from(probed));
        put_varint(out, n as u64);
        let mut prev_sport = 0;
        for f in own {
            put_delta(out, &mut prev_sport, u32::from(f.sport));
            out.push(f.dscp);
            put_varint(out, f.sent);
            put_varint(out, f.lost);
        }
    };
    for (p, &probed) in r.paths.iter().zip(&r.flows_probed) {
        path(out, p, probed);
    }
    for p in r.paths.get(r.flows_probed.len()..).unwrap_or_default() {
        path(out, p, 0);
    }
    encode_counters(&r.in_rack, out);
}

/// A decoded path record: its id, counters and flows probed.
type PathRecord = (PathId, PathCounters, u32);

/// The common path record, read with one 8-byte load: a one- or
/// two-byte key delta, one-byte `sent`, `lost` and flows probed, and no
/// flow record — all but a few of a storm report's records. It makes the
/// general arm's checks for such a record: a canonical delta (a second
/// byte of zero is padding), keys strictly ascending and in range, `lost
/// ≤ sent`, and, with flows probed, that they fit in `sent` and that
/// the path lost nothing or everything (no record carries the rest).
/// Anything else — a longer field, a record count, a check that fails,
/// fewer than 8 bytes left — returns `None` with `buf` untouched, and
/// the general arm reads the record from its first byte, so both arms
/// accept the same records with the same values and the general arm
/// alone names every error. `prev` is the previous key of the run.
#[inline(always)]
fn take_plain_path(buf: &mut &[u8], prev: Option<u32>) -> Option<PathRecord> {
    let bytes = *buf.first_chunk::<8>()?;
    // The delta as `take_varint` reads its one- and two-byte forms.
    let (delta, len) = match bytes {
        [low, ..] if low < 0x80 => (u64::from(low), 1),
        [low, high, ..] if high < 0x80 && high != 0 => {
            (u64::from(low & 0x7F) | u64::from(high) << 7, 2)
        }
        _ => return None,
    };
    // Then `sent`, `lost` and flows probed below 0x80, and a zero count.
    let fields = u64::from_le_bytes(bytes) >> (8 * len);
    if fields & 0xFF80_8080 != 0 {
        return None;
    }
    let (sent, lost, probed) = (fields & 0xFF, (fields >> 8) & 0xFF, (fields >> 16) & 0xFF);
    if prev.is_some() && delta == 0 || lost > sent {
        return None;
    }
    if probed > 0 && (probed > sent || lost != 0 && lost != sent) {
        return None;
    }
    let key = advance(prev, delta).ok()?;
    *buf = buf.get(len + 4..)?;
    Some((PathId(key), PathCounters { sent, lost }, probed as u32))
}

const FLOW_PROBES_DISAGREE: FrameError =
    FrameError::BadPayload("flow probes disagree with the path's");

fn decode_report(buf: &mut &[u8]) -> Result<PingerReport, FrameError> {
    let pinger = NodeId(take_u32(buf)?);
    let window = take_varint(buf)?;
    let num_paths = take_count(buf, MIN_PATH_RECORD)?;
    let num_flows = take_count(buf, MIN_FLOW_RECORD)?;
    // Presized, and written in place: pushed, each record would load and
    // store both lengths, as `push` may grow a vector.
    let mut paths = vec![(PathId(0), PathCounters::default()); num_paths];
    let mut flows_probed = vec![0; num_paths];
    let mut flows = Vec::with_capacity(num_flows);
    // The record loop's cursor and previous key stay local, and go to
    // the out-of-line arm by value: held behind a reference it passes
    // on, each record would store them and the next load them back.
    let (mut rest, mut prev) = (*buf, None);
    for (path_entry, probed_entry) in paths.iter_mut().zip(&mut flows_probed) {
        let (path, counters, probed) = match take_plain_path(&mut rest, prev) {
            Some(record) => record,
            None => {
                let (record, after) = take_path(rest, prev, &mut flows, num_flows)?;
                rest = after;
                record
            }
        };
        prev = Some(path.0);
        *path_entry = (path, counters);
        *probed_entry = probed;
    }
    *buf = rest;
    if flows.len() != num_flows {
        return Err(FrameError::BadPayload("flow counts disagree"));
    }
    Ok(PingerReport {
        pinger,
        window,
        paths,
        flows_probed,
        in_rack: decode_counters(buf)?,
        flows,
    })
}

/// Reads any path record from the front of `buf`, field by field, its
/// flow records onto `flows` (`num_flows` of them in the whole report),
/// and returns it with the bytes after it. Out of line, so that the
/// record loop keeps its registers for [`take_plain_path`].
#[inline(never)]
fn take_path<'a>(
    mut buf: &'a [u8],
    mut prev: Option<u32>,
    flows: &mut Vec<FlowRecord>,
    num_flows: usize,
) -> Result<(PathRecord, &'a [u8]), FrameError> {
    let buf = &mut buf;
    let path = PathId(take_key(buf, &mut prev)?);
    let counters = decode_counters(buf)?;
    let probed = u32::try_from(take_varint(buf)?)
        .map_err(|_| FrameError::BadPayload("flow count out of range"))?;
    let own = take_count(buf, MIN_FLOW_RECORD)?;
    if own > num_flows - flows.len() {
        return Err(FrameError::BadPayload("flow counts disagree"));
    }
    let clean = u64::from(probed)
        .checked_sub(own as u64)
        .ok_or(FrameError::BadPayload(
            "more flow records than flows probed",
        ))?;
    // Every flow of such a path lost all it sent: the counters say it,
    // and a record would only repeat them.
    let all_lost = counters.sent > 0 && counters.lost == counters.sent;
    if all_lost && own > 0 {
        return Err(FrameError::BadPayload(
            "records on a path that lost every probe",
        ));
    }
    let mut prev_flow: Option<(u16, u8)> = None;
    let (mut flow_sent, mut flow_lost) = (0u64, 0u64);
    for _ in 0..own {
        let delta = take_varint(buf)?;
        let [dscp] = take_array(buf)?;
        let sport = advance(prev_flow.map(|(sport, _)| sport), delta)?;
        if prev_flow.is_some_and(|prev| (sport, dscp) <= prev) {
            return Err(FrameError::BadPayload("keys not strictly ascending"));
        }
        prev_flow = Some((sport, dscp));
        let PathCounters { sent, lost } = decode_counters(buf)?;
        if lost == 0 {
            return Err(FrameError::BadPayload("flow record without a loss"));
        }
        // A sum past u64 is past any path's counters; `lost` cannot
        // overflow before `sent` does.
        flow_sent = flow_sent.checked_add(sent).ok_or(FLOW_PROBES_DISAGREE)?;
        flow_lost += lost;
        flows.push(FlowRecord {
            path,
            sport,
            dscp,
            sent,
            lost,
        });
    }
    // What lets the diagnoser rebuild the flows without a record by
    // subtraction: the records' probes leave at least one for each flow
    // without a record — none over when every flow has a record — and
    // the records' losses are the path's, or the path lost every probe
    // and has no record. Zero flows probed is a path reported without
    // per-flow information: nothing to check.
    if probed > 0 {
        let fits = match flow_sent.checked_add(clean) {
            Some(least) if clean == 0 => least == counters.sent,
            Some(least) => least <= counters.sent,
            None => false,
        };
        if !fits {
            return Err(FLOW_PROBES_DISAGREE);
        }
        if !all_lost && flow_lost != counters.lost {
            return Err(FrameError::BadPayload(
                "flow losses disagree with the path's",
            ));
        }
    }
    Ok(((path, counters, probed), *buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(
        path: Option<u32>,
        route: &[u32],
        responder: u32,
        waypoint: Option<u32>,
    ) -> (PingEntry, Vec<NodeId>) {
        let e = PingEntry {
            path: path.map(PathId),
            responder: NodeId(responder),
            waypoint: waypoint.map(NodeId),
        };
        (e, route.iter().map(|&n| NodeId(n)).collect())
    }

    fn runs(route: Vec<NodeId>) -> Runs<NodeId> {
        let mut runs = Runs::default();
        runs.push_run(route);
        runs
    }

    fn list() -> Pinglist {
        let mut l = Pinglist {
            version: 7,
            pinger: NodeId(100),
            entries: Vec::new(),
            routes: Runs::default(),
            interval_us: 100_000,
            base_sport: 33000,
            port_range: 16,
            dport: 53533,
            stamp: 0,
        };
        for (e, route) in [
            entry(Some(3), &[100, 1, 2, 101], 101, Some(2)),
            entry(None, &[100, 1, 102], 102, None),
        ] {
            l.push(e, route);
        }
        l.seal();
        l
    }

    fn report() -> PingerReport {
        let flow = |path, sport, dscp, sent, lost| FlowRecord {
            path: PathId(path),
            sport,
            dscp,
            sent,
            lost,
        };
        PingerReport {
            pinger: NodeId(100),
            window: 4,
            paths: vec![
                (PathId(3), PathCounters { sent: 300, lost: 3 }),
                (PathId(9), PathCounters { sent: 1, lost: 1 }),
            ],
            // Path 3 probed a fourth flow, 25 times, and lost nothing on
            // it. Path 9's one flow lost its one probe: the path's
            // counters say so, and it has no record.
            flows_probed: vec![4, 1],
            in_rack: PathCounters { sent: 10, lost: 0 },
            flows: vec![
                flow(3, 33000, 0, 150, 1),
                flow(3, 33000, 46, 75, 1),
                flow(3, 33001, 18, 50, 1),
            ],
        }
    }

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { agent: 3 },
            Frame::ListUpdate(ListUpdate::Replace(list())),
            Frame::ListUpdate(ListUpdate::Remove(NodeId(9))),
            Frame::ListUpdate(ListUpdate::Diff {
                pinger: NodeId(100),
                version: 9,
                stamp: 0x1234_5678_9ABC_DEF0,
                removed: vec![0xDEAD_BEEF_CAFE_F00D, 7],
                added: vec![(2, entry(Some(8), &[100, 4, 101], 101, None).0)],
                routes: runs(vec![NodeId(100), NodeId(4), NodeId(101)]),
            }),
            Frame::Reset,
            Frame::WindowStart {
                window: 21,
                window_seed: 0xFEED_FACE_0123_4567,
                skip: vec![NodeId(5), NodeId(17)],
            },
            Frame::HeartbeatReq { nonce: 42 },
            Frame::HeartbeatAck {
                nonce: 42,
                agent: 1,
            },
            Frame::Report(report()),
            Frame::WindowDone {
                window: 21,
                agent: 1,
            },
            Frame::Shutdown,
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for f in all_frames() {
            let bytes = f.encode();
            let back = Frame::decode(&bytes).unwrap_or_else(|e| panic!("{f:?}: {e}"));
            assert_eq!(back, f);
        }
    }

    #[test]
    fn entries_round_trip_through_their_one_byte_form() {
        let cases = vec![
            entry(Some(7), &[1, 2, 3, 4], 4, Some(2)),
            entry(None, &[9, 8], 8, None),
            entry(Some(u32::MAX), &[], 0, None),
        ];
        let mut routes = Runs::default();
        for (i, (e, route)) in cases.into_iter().enumerate() {
            let mut bytes = Vec::new();
            encode_entry(&e, &route, &mut bytes);
            let mut buf = &bytes[..];
            assert_eq!(decode_entry(&mut buf, &mut routes), Ok(e));
            assert!(buf.is_empty(), "decode must consume exactly the encoding");
            assert_eq!(routes.run(i), route, "the route is appended as its own run");
        }
        // A flag byte is 0 or 1; a route's hops must all be there.
        let mut flag = &[2, 0, 0][..];
        let why = FrameError::BadPayload("ping entry flag");
        assert_eq!(decode_entry(&mut flag, &mut routes), Err(why));
        let mut short = &[0, 0, 9, 0, 0, 0, 1][..];
        assert_eq!(
            decode_entry(&mut short, &mut routes),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn an_edit_script_is_one_frame_of_the_documented_layout() {
        let (e, route) = entry(None, &[100], 101, None);
        let update = ListUpdate::Diff {
            pinger: NodeId(100),
            version: 9,
            stamp: 77,
            removed: vec![5],
            added: vec![(1, e)],
            routes: runs(route),
        };
        let want = [
            &[0, 0, 0, 47, TAG_LIST_DIFF][..],
            &[0, 0, 0, 100],
            &9u64.to_be_bytes(),
            &77u64.to_be_bytes(),
            &[1],
            &5u64.to_be_bytes(),
            &[1, 0, 0, 0, 1],
            &[0, 0, 1, 0, 0, 0, 100, 0, 0, 0, 101, 0],
        ]
        .concat();
        assert_eq!(encode_update(&update), want);
        assert_eq!(Frame::ListUpdate(update.clone()).encode(), want);
        assert_eq!(Frame::decode(&want), Ok(Frame::ListUpdate(update)));
    }

    #[test]
    fn edit_script_counts_the_frame_cannot_hold_are_rejected_before_allocating() {
        let why = Err(FrameError::BadPayload("record count exceeds the frame"));
        let head = [&[0, 0, 0, 1][..], &[0; 16]].concat();
        let frame = |body: &[u8]| {
            let mut bytes = ((head.len() + body.len()) as u32 + 1)
                .to_be_bytes()
                .to_vec();
            bytes.push(TAG_LIST_DIFF);
            bytes.extend([&head[..], body].concat());
            bytes
        };
        // A billion removals; two in 15 bytes; two additions in 23.
        assert_eq!(Frame::decode(&frame(&[0x80, 0x94, 0xEB, 0xDC, 0x03])), why);
        assert_eq!(Frame::decode(&frame(&[&[2][..], &[0; 15]].concat())), why);
        assert_eq!(
            Frame::decode(&frame(&[&[0, 2][..], &[0; 23]].concat())),
            why
        );
        let ok = frame(&[&[0, 2][..], &[0; 24]].concat());
        assert!(matches!(Frame::decode(&ok), Ok(Frame::ListUpdate(_))));
    }

    /// Wraps hand-assembled report body bytes into a `Report` frame.
    fn report_frame(body: &[&[u8]]) -> Vec<u8> {
        let body = body.concat();
        let mut bytes = (body.len() as u32 + 1).to_be_bytes().to_vec();
        bytes.push(TAG_REPORT);
        bytes.extend(body);
        bytes
    }

    fn bad_report(body: &[&[u8]], why: &'static str) {
        let got = Frame::decode(&report_frame(body));
        assert_eq!(got, Err(FrameError::BadPayload(why)), "{body:?}");
    }

    /// Pinger 100, window 4.
    const HEAD: &[u8] = &[0, 0, 0, 100, 4];
    /// An in-rack total of no probes: what ends a report.
    const NO_RACK: &[u8] = &[0, 0];

    #[test]
    fn report_body_is_the_documented_layout() {
        let r = PingerReport {
            flows: report().flows[..3].to_vec(),
            paths: report().paths[..1].to_vec(),
            flows_probed: vec![4],
            ..report()
        };
        let want = report_frame(&[
            HEAD,
            &[1, 3],                               // One path, three flow records in all.
            &[3, 0xAC, 0x02, 3],                   // Path 3: sent 300, lost 3 ...
            &[4, 3], // ... over four flows, three of which lost a probe:
            &[0xE8, 0x81, 0x02, 0, 0x96, 0x01, 1], // sport 33000, dscp 0, 150/1
            &[0, 46, 75, 1], // same port, dscp 46
            &[1, 18, 50, 1], // next port, dscp 18
            &[10, 0], // In-rack total: 10 sent, 0 lost.
        ]);
        assert_eq!(Frame::Report(r.clone()).encode(), want);
        assert_eq!(Frame::decode(&want), Ok(Frame::Report(r)));
    }

    #[test]
    fn a_flow_count_missing_from_the_report_ships_as_zero() {
        // Reports built by hand often give counters only: the paths then
        // carry no per-flow information, on the wire and after it.
        let bare = PingerReport {
            flows_probed: Vec::new(),
            flows: Vec::new(),
            ..report()
        };
        let got = Frame::decode(&Frame::Report(bare.clone()).encode());
        let want = PingerReport {
            flows_probed: vec![0, 0],
            ..bare
        };
        assert_eq!(got, Ok(Frame::Report(want)));
    }

    /// Path 3 with `sent`/`lost` probes, up to (not including) its flow
    /// counts.
    fn path3(sent: u8, lost: u8) -> Vec<u8> {
        vec![3, sent, lost]
    }

    #[test]
    fn non_ascending_report_keys_are_rejected() {
        let why = "keys not strictly ascending";
        // Path 3 twice (the second key is a zero delta).
        let path = [&path3(9, 0)[..], &[0, 0]].concat();
        bad_report(&[HEAD, &[2, 0], &path, &[0, 9, 0], &[0, 0], NO_RACK], why);
        // The same (port, class) flow twice, then a class going backwards;
        // a third flow kept the path's third probe.
        let two_flows = [&[1, 2][..], &path3(3, 2), &[3, 2], &[80, 46, 1, 1]].concat();
        bad_report(&[HEAD, &two_flows, &[0, 46, 1, 1], NO_RACK], why);
        bad_report(&[HEAD, &two_flows, &[0, 18, 1, 1], NO_RACK], why);
        // A later port with a lower class is in order.
        let ok = report_frame(&[HEAD, &two_flows, &[1, 18, 1, 1], NO_RACK]);
        assert!(Frame::decode(&ok).is_ok());
    }

    #[test]
    fn out_of_range_report_keys_are_rejected() {
        let why = "key out of range";
        // Path u32::MAX followed by a delta of one.
        let last = [0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 0, 0, 0];
        bad_report(&[HEAD, &[2, 0], &last, &[1, 1, 0], &[0, 0], NO_RACK], why);
        // Source port 65535 + 1, beside a flow that lost nothing.
        let flows = [0xFF, 0xFF, 0x03, 0, 1, 1, 1, 0, 1, 1];
        bad_report(
            &[HEAD, &[1, 2], &path3(3, 2), &[3, 2], &flows, NO_RACK],
            why,
        );
        // 2^32 flows probed on one path.
        let many = [0x80, 0x80, 0x80, 0x80, 0x10, 0];
        let why = "flow count out of range";
        bad_report(&[HEAD, &[1, 0], &path3(9, 0), &many, NO_RACK], why);
    }

    #[test]
    fn more_lost_than_sent_is_rejected() {
        let why = "lost exceeds sent";
        // A path, a flow record, the in-rack total.
        bad_report(&[HEAD, &[1, 0], &path3(9, 10), &[0, 0], NO_RACK], why);
        bad_report(
            &[
                HEAD,
                &[1, 1],
                &path3(9, 0),
                &[1, 1],
                &[80, 0, 2, 3],
                NO_RACK,
            ],
            why,
        );
        bad_report(&[HEAD, &[0, 0], &[0, 1]], why);
    }

    #[test]
    fn flow_records_that_do_not_add_up_to_their_path_are_rejected() {
        // What the diagnoser's subtraction relies on, rule by rule. The
        // path sent 9 probes; its one record is port 80, class 0.
        let one = |sent, lost, probed, record: [u8; 2]| {
            let path = [&path3(sent, lost)[..], &[probed, 1], &[80, 0], &record].concat();
            report_frame(&[HEAD, &[1, 1], &path, NO_RACK])
        };
        let bad = |frame: Vec<u8>, why| {
            assert_eq!(Frame::decode(&frame), Err(FrameError::BadPayload(why)));
        };
        // A record is a flow that lost something.
        bad(one(9, 0, 1, [9, 0]), "flow record without a loss");
        // No more records than flows.
        bad(one(9, 1, 0, [9, 1]), "more flow records than flows probed");
        // The record's 8 probes and one each for two clean flows are 10.
        let why = "flow probes disagree with the path's";
        bad(one(9, 1, 3, [8, 1]), why);
        // Every flow has a record, and a probe belongs to none of them.
        bad(one(9, 1, 1, [8, 1]), why);
        // Two records of u64::MAX probes each: the sum leaves u64.
        let max = [&[0xFF; 9][..], &[1]].concat();
        let path = [&[3][..], &max, &[2], &[2, 2]].concat();
        let records = [&[80, 0][..], &max, &[1], &[0, 1], &max, &[1]].concat();
        bad(
            report_frame(&[HEAD, &[1, 2], &path, &records, NO_RACK]),
            why,
        );
        // One clean flow took the ninth probe: this is a report.
        assert!(Frame::decode(&one(9, 1, 2, [8, 1])).is_ok());
        // The path lost 2, its records 1.
        let why = "flow losses disagree with the path's";
        bad(one(9, 2, 2, [8, 1]), why);
        // Flows were probed, one probe was lost, and no flow lost it.
        let lossless = [&path3(9, 1)[..], &[2, 0]].concat();
        bad(report_frame(&[HEAD, &[1, 0], &lossless, NO_RACK]), why);
        // Zero flows probed is a path without per-flow information.
        let bare = [&path3(9, 1)[..], &[0, 0]].concat();
        assert!(Frame::decode(&report_frame(&[HEAD, &[1, 0], &bare, NO_RACK])).is_ok());
        // A path that lost every probe is its count of flows and no
        // record, each flow with a probe of its own ...
        let dead = [&path3(9, 9)[..], &[3, 0]].concat();
        assert!(Frame::decode(&report_frame(&[HEAD, &[1, 0], &dead, NO_RACK])).is_ok());
        let crowded = [&path3(2, 2)[..], &[3, 0]].concat();
        let why = "flow probes disagree with the path's";
        bad(report_frame(&[HEAD, &[1, 0], &crowded, NO_RACK]), why);
        // ... and a record on it is refused, even one that adds up.
        let why = "records on a path that lost every probe";
        bad(one(9, 9, 1, [9, 9]), why);
        bad(one(9, 9, 2, [8, 8]), why);
    }

    #[test]
    fn malformed_varints_are_rejected() {
        // The window as an 11-byte varint (padded so the frame is long
        // enough for the count checks not to trip first).
        let long = [&[0x80; 10][..], &[1], &[0; 8]].concat();
        bad_report(&[&HEAD[..4], &long], "varint longer than 10 bytes");
        // Ten bytes whose last group carries bits 64 and up.
        let wide = [&[0xFF; 9][..], &[2, 0, 0], NO_RACK].concat();
        bad_report(&[&HEAD[..4], &wide], "varint overflows 64 bits");
        // u64::MAX itself is fine.
        let max = [&[0xFF; 9][..], &[1, 0, 0], NO_RACK].concat();
        let got = Frame::decode(&report_frame(&[&HEAD[..4], &max]));
        assert!(matches!(got, Ok(Frame::Report(r)) if r.window == u64::MAX));
        // Window 4 spelled in two bytes: not what the encoder writes.
        let padded = [&[0x84, 0, 0, 0][..], NO_RACK].concat();
        bad_report(&[&HEAD[..4], &padded], "varint is zero-padded");
        // Two-byte varints, the inline form: 0 padded, the smallest and
        // the largest, and one cut at the end of the frame.
        let zero = [&[0x80, 0, 0, 0][..], NO_RACK].concat();
        bad_report(&[&HEAD[..4], &zero], "varint is zero-padded");
        for (spelled, window) in [([0x80, 0x01], 128), ([0xFF, 0x7F], 16_383)] {
            let body = [&spelled[..], &[0, 0], NO_RACK].concat();
            let got = Frame::decode(&report_frame(&[&HEAD[..4], &body]));
            assert!(matches!(got, Ok(Frame::Report(r)) if r.window == window));
        }
        let cut = report_frame(&[HEAD, &[0, 0], &[10, 0x80]]);
        assert_eq!(Frame::decode(&cut), Err(FrameError::Truncated));
    }

    #[test]
    fn counts_the_frame_cannot_hold_are_rejected_before_allocating() {
        let why = "record count exceeds the frame";
        // u64::MAX paths; a billion flows; 2 paths in 9 bytes.
        let max = [&[0xFF; 9][..], &[1]].concat();
        bad_report(&[HEAD, &max, &[0], NO_RACK], why);
        bad_report(&[HEAD, &[0], &[0x80, 0x94, 0xEB, 0xDC, 0x03], NO_RACK], why);
        bad_report(&[HEAD, &[2], &[0; 9]], why);
        // A path announcing more records than bytes are left.
        let path = path3(9, 1);
        bad_report(
            &[HEAD, &[1, 1], &path, &[2, 2], &[80, 0, 9, 1], NO_RACK],
            why,
        );
        // Per-path record counts above or below the announced total.
        let why = "flow counts disagree";
        let records = [80, 0, 8, 1, 1, 0, 1, 1];
        bad_report(&[HEAD, &[1, 1], &path, &[2, 2], &records, NO_RACK], why);
        bad_report(
            &[HEAD, &[1, 2], &path, &[1, 1], &[80, 0, 9, 1], NO_RACK],
            why,
        );
    }

    #[test]
    fn a_report_breaking_its_invariants_does_not_decode() {
        // The fields are public, so nothing stops a caller from building
        // an unsorted report, a flow record without its path, a record of
        // a flow that lost nothing, a count that forgets a flow or a
        // record on a path that lost every probe; such a report must fail
        // at the receiver instead of arriving altered.
        let mut unsorted = report();
        unsorted.paths.reverse();
        let mut orphan = report();
        orphan.paths.remove(0);
        let mut unsorted_flows = report();
        unsorted_flows.flows.swap(0, 2);
        let mut clean_record = report();
        clean_record.flows[1].lost = 0;
        let mut short_count = report();
        short_count.flows_probed[0] = 2;
        let mut rack_overlost = report();
        rack_overlost.in_rack.lost = 11;
        let mut dead_path_record = report();
        dead_path_record.flows.push(FlowRecord {
            path: PathId(9),
            sport: 40000,
            dscp: 0,
            sent: 1,
            lost: 1,
        });
        let all = [
            unsorted,
            orphan,
            unsorted_flows,
            clean_record,
            short_count,
            rack_overlost,
            dead_path_record,
        ];
        for bad in all {
            let got = Frame::decode(&Frame::Report(bad.clone()).encode());
            assert!(matches!(got, Err(FrameError::BadPayload(_))), "{bad:?}");
        }
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        for f in all_frames() {
            let bytes = f.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Frame::decode(&bytes[..cut]).is_err(),
                    "{f:?} decoded from a {cut}-byte prefix"
                );
            }
        }
        // A report cut inside its in-rack total, the length prefix
        // matching what is left: the report decoder runs out mid-field.
        let cut = report_frame(&[HEAD, &[0, 0], &[10]]);
        assert_eq!(Frame::decode(&cut), Err(FrameError::Truncated));
        let whole = report_frame(&[HEAD, &[0, 0], &[10, 0]]);
        assert!(Frame::decode(&whole).is_ok());
    }

    #[test]
    fn garbage_and_oversize_are_rejected() {
        // Unknown tag.
        let mut bytes = Frame::Shutdown.encode();
        bytes[4] = 200;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::UnknownTag(200)));
        // Tag 5, between the list and the control tags, is unassigned.
        bytes[4] = 5;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::UnknownTag(5)));
        // Trailing bytes after a valid frame.
        let mut bytes = Frame::HeartbeatReq { nonce: 1 }.encode();
        bytes.push(0);
        assert_eq!(Frame::decode(&bytes), Err(FrameError::TrailingBytes));
        // A hostile length prefix is rejected before allocation.
        let mut huge = (MAX_FRAME + 1).to_be_bytes().to_vec();
        huge.push(TAG_SHUTDOWN);
        assert_eq!(
            Frame::decode(&huge),
            Err(FrameError::Oversize(MAX_FRAME + 1))
        );
    }
}
